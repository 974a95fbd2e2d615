"""Finite chain complexes for the five spaces attached to a reflection
group.

Space tokens follow the command line:

- ``FP``  quotient Milnor fibre: the cycle bases in chain degrees 1..n.
- ``FQ``  Milnor fibre upstairs: every group element tensored against the
  cycle bases.
- ``FQ0`` the connected fibre: the FQ columns whose group element has the
  parity of the chain degree.
- ``M``   hyperplane complement: every group element tensored against the
  full bases in chain degrees 0..n.
- ``MW``  orbit space of M (Artin-group homology): the full bases alone.

There is one boundary assembly.  ``group_ring_boundary`` applies the two
signed deletion operators on label sequences, the conjugating deletion
(drop entry i, conjugate every earlier entry by it) times the reflection
t_i, and for M and MW minus the plain deletion times 1, and solves each
deleted term exactly in the basis one degree down.  Both deletions of a
reduced sequence stay reduced with product below the original element,
so every term is individually resolvable.  The result is the boundary as
a matrix over the integral group ring Z[W]: one integer per (row, col, t),
with row and col basis positions and t the reflection position of the
group element, or -1 for the identity.  Only Z[W] coefficients turn t
into an element.

The identity part of the degree-k M and MW boundary is (-1)^k times the
algebra differential, which sends each full basis chain to its interval
cycle one degree down; ``build_algebra_complex`` is that part of the MW
boundary, read from the same plain-deletion sum.

``build_complex`` then tensors it with one of three coefficient modules:

- the trivial module Z, every element acting as 1 (FP, MW);
- Z[W] with W acting by right multiplication (FQ, M);
- the degree-parity half of Z[W], where the elements in chain degree k
  have parity k mod 2; right multiplication by a reflection swaps the
  halves (FQ0).

The right action is tabulated once per degree for each t in the
boundary's support, so the group is multiplied once per slot and support
element rather than once per matrix entry.  The group-ring form also lets the
square-is-zero law be checked for groups too large to enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chain_algebra import ChainAlgebra
from .coxgroup import DEFAULT_GROUP_CAP
from .homology import BoundaryMatrix, compose

SPACES = ("FP", "FQ0", "FQ", "M", "MW")


@dataclass
class ChainComplex:
    """A bounded complex of free abelian groups with labelled bases.

    ``matrices[d]`` is the boundary from chain degree d to d - 1; the
    lowest degree has no matrix.  Topological degree = chain degree minus
    the lowest chain degree.
    """

    name: str
    degrees: list
    dims: dict
    matrices: dict
    labels: dict = field(default_factory=dict)

    def check_square_zero(self) -> None:
        for d in self.degrees[2:]:
            if compose(self.matrices[d - 1], self.matrices[d]).entries:
                raise AssertionError(f"{self.name}: boundary {d - 1} "
                                     f"after boundary {d} is not zero")


def _basis(algebra: ChainAlgebra, space: str, k: int):
    """Cycle bases for the fibres, full bases for the complements."""
    if space in ("FP", "FQ", "FQ0"):
        return algebra.cycle_basis(k)
    return algebra.full_basis(k)


def group_ring_boundary(algebra: ChainAlgebra, space: str, k: int) -> dict:
    """The degree-k boundary of a space as a matrix over the integral
    group ring: {(row, col, t): coeff}, nonzero coefficients only, with
    row and col the positions in the degree k - 1 and degree k bases of
    that space and t the reflection position of the group element, or -1
    for the identity.

    Columns of the group-tensored complexes (FQ, FQ0, M) multiply their
    group slot on the right by these elements; FP and MW map every
    element to 1.  No element is enumerated.
    """
    if space not in SPACES:
        raise ValueError(f"unknown space {space!r}")
    fibre = space in ("FP", "FQ", "FQ0")
    coords_of = algebra.cycle_coords if fibre else algebra.chain_coords
    acc: dict = {}
    for col, label in enumerate(_basis(algebra, space, k).labels):
        for i in range(k):
            sign = -1 if i % 2 else 1
            t = label[i]
            for row, c in coords_of(
                    algebra.deleted_conjugate(label, i), k - 1).items():
                key = (row, col, t)
                acc[key] = acc.get(key, 0) + sign * c
    acc = {key: c for key, c in acc.items() if c}
    if not fibre:  # t = -1 is never a reflection position
        for (row, col), c in _plain_deletion(algebra, k).items():
            acc[row, col, -1] = -c
    return acc


def _plain_deletion(algebra: ChainAlgebra, k: int) -> dict:
    """The alternating sum of plain deletions on the degree-k full basis,
    {(row, col): coeff} with nonzero coefficients only."""
    acc: dict = {}
    for col, label in enumerate(algebra.full_basis(k).labels):
        for i in range(k):
            sign = -1 if i % 2 else 1
            for row, c in algebra.chain_coords(
                    label[:i] + label[i + 1:], k - 1).items():
                acc[row, col] = acc.get((row, col), 0) + sign * c
    return {key: c for key, c in acc.items() if c}


def _coefficient_slots(group, space: str, degrees, cap):
    """The group elements indexing the coefficient copies in each degree,
    or None for the trivial module (FP, MW)."""
    if space in ("FP", "MW"):
        return None
    elements = sorted(group.enumerate_elements(cap))
    if space != "FQ0":
        return {k: elements for k in degrees}
    halves = ([w for w in elements if group.parity(w) == 0],
              [w for w in elements if group.parity(w) == 1])
    if len(halves[0]) != len(halves[1]):
        raise RuntimeError(f"{group.ctype}: {len(halves[0])} even and "
                           f"{len(halves[1])} odd elements")
    return {k: halves[k % 2] for k in degrees}


def build_complex(algebra: ChainAlgebra, space: str,
                  cap: int = DEFAULT_GROUP_CAP) -> ChainComplex:
    """The complex of one space: the group-ring boundary of every degree,
    tensored with the space's coefficient module."""
    if space not in SPACES:
        raise ValueError(f"unknown space {space!r}")
    group = algebra.group
    low = 0 if space in ("M", "MW") else 1
    degrees = list(range(low, group.rank + 1))
    slots = _coefficient_slots(group, space, degrees, cap)
    elements = group.reflection_keys + (group.identity,)  # t = -1: identity
    bases = {k: _basis(algebra, space, k).labels for k in degrees}
    labels = bases if slots is None else {
        k: tuple((wi, lab) for wi in range(len(slots[k])) for lab in bases[k])
        for k in degrees}
    dims = {k: len(labels[k]) for k in degrees}
    matrices = {}
    for k in degrees[1:]:
        width, prev_width = len(bases[k]), len(bases[k - 1])
        if slots is not None:
            index = {w: i for i, w in enumerate(slots[k - 1])}
        # the right action of each element in the support, as the target
        # slot of every slot of degree k
        table: dict = {}
        matrix = BoundaryMatrix(dims[k - 1], dims[k])
        entries = matrix.entries
        for (row, col, t), c in group_ring_boundary(algebra, space,
                                                    k).items():
            targets = table.get(t)
            if targets is None:
                targets = table[t] = [0] if slots is None else [
                    index[group.multiply(w, elements[t])] for w in slots[k]]
            for wi, target in enumerate(targets):
                key = (target * prev_width + row, wi * width + col)
                total = entries.get(key, 0) + c
                if total:
                    entries[key] = total
                else:
                    del entries[key]
        matrices[k] = matrix
    return ChainComplex(space, degrees, dims, matrices, labels)


def build_algebra_complex(algebra: ChainAlgebra) -> ChainComplex:
    """The algebra with its own differential, each basis chain sent to
    its interval cycle one degree down: the identity part (t = -1) of the
    degree-k MW boundary times (-1)^k, which is the plain-deletion sum
    times (-1)^(k + 1).  The complex is acyclic over the integers; its
    degreewise differential ranks equal the cycle-basis sizes."""
    degrees = list(range(algebra.group.rank + 1))
    labels = {k: algebra.full_basis(k).labels for k in degrees}
    dims = {k: len(labels[k]) for k in degrees}
    matrices = {}
    for k in degrees[1:]:
        sign = 1 if k % 2 else -1
        matrices[k] = BoundaryMatrix(dims[k - 1], dims[k], {
            key: sign * c for key, c in _plain_deletion(algebra, k).items()})
    return ChainComplex("B", degrees, dims, matrices, labels)


# -- group-ring checks ----------------------------------------------------

def group_ring_square_is_zero(algebra: ChainAlgebra, space: str) -> bool:
    """Exact check of boundary-of-boundary = 0 in group-ring form."""
    group = algebra.group
    elements = group.reflection_keys + (group.identity,)  # t = -1: identity
    low = 1 if space in ("FP", "FQ", "FQ0") else 0
    product_cache: dict = {}
    for k in range(low + 2, group.rank + 1):
        by_mid: dict = {}
        for (r, mid, t_low), c_low in group_ring_boundary(
                algebra, space, k - 1).items():
            by_mid.setdefault(mid, []).append((r, t_low, c_low))
        square: dict = {}
        for (mid, c, t_up), c_up in group_ring_boundary(algebra, space,
                                                         k).items():
            for r, t_low, c_low in by_mid.get(mid, ()):
                elem = product_cache.get((t_up, t_low))
                if elem is None:
                    elem = product_cache[t_up, t_low] = group.multiply(
                        elements[t_up], elements[t_low])
                key = (r, c, elem)
                square[key] = square.get(key, 0) + c_up * c_low
        if any(square.values()):
            return False
    return True


def fibre_support_is_reflections(algebra: ChainAlgebra) -> bool:
    """Every group element in the formal FQ boundary is one reflection:
    no term has the identity, t = -1.

    Together with right multiplication this shows the degree-parity
    restriction is a subcomplex and that left translation by any odd
    element matches the two parity blocks, so FQ computes the FQ0 answer
    doubled."""
    return all(t >= 0
               for k in range(2, algebra.group.rank + 1)
               for _, _, t in group_ring_boundary(algebra, "FQ", k))
