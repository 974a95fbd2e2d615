"""Shared construction cache so tests reuse lattices and algebras."""

from ncphom import ChainAlgebra, CoxeterGroup, PartitionLattice

_algebras: dict = {}


def algebra_for(name: str) -> ChainAlgebra:
    """One memoized algebra (with its lattice and group) per type name."""
    out = _algebras.get(name)
    if out is None:
        group = CoxeterGroup.from_name(name)
        out = ChainAlgebra(PartitionLattice(group))
        _algebras[name] = out
    return out


def lattice_for(name: str) -> PartitionLattice:
    return algebra_for(name).lat


def group_for(name: str) -> CoxeterGroup:
    return algebra_for(name).group


def per_boundary_homology(complex_) -> list:
    """The homology of a complex from the Smith form of each boundary on
    its own, every row kept: the check route for ``homology_of``, which
    leaves out the rows that the previous boundary's unit pivots match."""
    from ncphom.homology import HomologyGroup, invariant_factors

    degrees = list(complex_.degrees)
    ranks, torsion = {}, {}
    for d in degrees[1:]:
        factors, ranks[d] = invariant_factors(complex_.matrices[d])
        torsion[d] = tuple(f for f in factors if f > 1)
    return [HomologyGroup(complex_.dims[d] - ranks.get(d, 0)
                          - ranks.get(d + 1, 0), torsion.get(d + 1, ()))
            for d in degrees]
