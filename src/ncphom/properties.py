"""The per-type invariant suite shared by the command line and the tests.

Each check returns (name, ok, detail).  The suite proves structural laws
that need no reference numbers: boundary squares vanish, Moebius values
count decreasing factorizations, intervals have exactly one increasing
chain and it is lexicographically first, the Hurwitz action satisfies
braid relations, the quadratic relations hold in rank 2, the bases are
unitriangular, the chain of every reduced factorization has integer
coordinates in the basis of decreasing ones (so both span the same
lattice), the algebra differential is exact, the unrestricted fibre
complex computes the restricted answer doubled, the differential obeys
the Leibniz rule on splits, the graded ranks match the Moebius
polynomial of the lattice, and the shuffle product is associative.

Group-tensored complexes are materialized only for small groups, at
most the group cap; larger ones are checked in formal group-ring form,
which never enumerates the group (see
complexes.group_ring_square_is_zero).
"""

from __future__ import annotations

from .chain_algebra import ChainAlgebra, chain_sum
from .complexes import (ENUMERATING_SPACES, SPACES, _unreduced_complex,
                        build_algebra_complex, build_complex,
                        fibre_support_is_reflections,
                        group_ring_square_is_zero)
from .coxgroup import DEFAULT_GROUP_CAP, CoxeterGroup
from .homology import homology_of, invariant_factors
from .lattice import PartitionLattice

MATERIALIZE_LIMIT = 150   # enumerate W below this order, group-ring above
DOUBLING_LIMIT = 48       # numeric FQ-vs-FQ0 comparison below this order

SUPPORTED_RANK4 = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "D3", "D4",
                   "F4", "H3", "H4", "I2(5)", "I2(6)", "I2(7)", "I2(8)")


def property_suite(type_name: str, seed: int = 0,
                   cap: int = DEFAULT_GROUP_CAP):
    """Run every invariant for one type; yields (name, ok, detail).  No
    group larger than ``cap`` is enumerated."""
    import random

    group = CoxeterGroup.from_name(type_name)
    lat = PartitionLattice(group)
    algebra = ChainAlgebra(lat)
    rng = random.Random(seed)
    checks = [
        ("hurwitz-braid-relations", check_hurwitz_braid),
        ("mobius-counts-factorizations", check_mobius_counts),
        ("unique-increasing-chain", check_increasing_chains),
        ("quadratic-relations", check_quadratic_relations),
        ("unitriangular-bases", check_unitriangular),
        ("span-equality", check_span_equality),
        ("algebra-differential-exact", check_algebra_exact),
        ("boundary-squares-vanish",
         lambda algebra, rng: check_boundary_squares(algebra, rng, cap)),
        ("fibre-doubling",
         lambda algebra, rng: check_fibre_doubling(algebra, rng, cap)),
        ("leibniz-rule", check_leibniz),
        ("moebius-polynomial-ranks", check_poincare_ranks),
        ("shuffle-associative", check_shuffle_associative),
    ]
    for name, fn in checks:
        try:
            detail = fn(algebra, rng)
            yield (name, True, detail)
        except AssertionError as err:
            yield (name, False, str(err) or "assertion failed")


def _require(ok: bool, detail="") -> None:
    """Fail the running check; an explicit raise, so it also runs under
    ``python -O``."""
    if not ok:
        raise AssertionError(detail)


def _random_sequences(algebra, rng, count, length):
    positions = range(algebra.group.num_reflections)
    return [tuple(rng.choice(positions) for _ in range(length))
            for _ in range(count)]


def check_hurwitz_braid(algebra: ChainAlgebra, rng) -> str:
    """sigma_i sigma_j = sigma_j sigma_i far apart, the braid relation on
    neighbours, inverses cancel, and products never move."""
    group = algebra.group
    trials = 0
    for seq in _random_sequences(algebra, rng, 1000, 4):
        a, b = 0, 2
        lhs = algebra.hurwitz_move(algebra.hurwitz_move(seq, a), b)
        rhs = algebra.hurwitz_move(algebra.hurwitz_move(seq, b), a)
        _require(lhs == rhs, ("commuting moves disagree", seq))
        i = rng.randrange(2)
        lhs = algebra.hurwitz_move(
            algebra.hurwitz_move(algebra.hurwitz_move(seq, i), i + 1), i)
        rhs = algebra.hurwitz_move(
            algebra.hurwitz_move(algebra.hurwitz_move(seq, i + 1), i), i + 1)
        _require(lhs == rhs, ("braid relation fails", seq, i))
        j = rng.randrange(3)
        back = algebra.hurwitz_move(algebra.hurwitz_move(seq, j), j,
                                    inverse=True)
        _require(back == seq, ("inverse does not cancel", seq, j))
        _require(group.sequence_product(lhs) == group.sequence_product(seq),
                 ("product moved", seq))
        trials += 1
    return f"{trials} random length-4 sequences"


def check_mobius_counts(algebra: ChainAlgebra, rng) -> str:
    lat = algebra.lat
    for vid in range(lat.size):
        mu = lat.mobius(vid)
        count = len(lat.decreasing_factorizations(vid))
        sign = -1 if lat.rank[vid] % 2 else 1
        _require(count == sign * mu, (lat.keys[vid], mu, count))
    return f"all {lat.size} elements"


def _increasing_chain_count(lat, uid, vid, floor=-1):
    if uid == vid:
        return 1
    total = 0
    for label, wid in lat.upper_covers[uid]:
        if label > floor and lat.leq(wid, vid):
            total += _increasing_chain_count(lat, wid, vid, label)
    return total


def check_increasing_chains(algebra: ChainAlgebra, rng) -> str:
    """Each interval has exactly one increasing maximal chain, and the
    greedy least-label chain is that one."""
    lat = algebra.lat
    pairs = 0
    for vid in range(lat.size):
        for uid in lat.interval_ids(lat.identity_id, vid):
            _require(_increasing_chain_count(lat, uid, vid) == 1,
                     ("interval has several increasing chains", uid, vid))
            chain = lat.increasing_chain(uid, vid)
            _require(all(a < b for a, b in zip(chain, chain[1:])),
                     ("greedy chain not increasing", uid, vid))
            pairs += 1
    return f"{pairs} intervals"


def check_quadratic_relations(algebra: ChainAlgebra, rng) -> str:
    lat = algebra.lat
    group = algebra.group
    n_t = group.num_reflections
    zero_pairs = 0
    for i in range(n_t):
        for j in range(n_t):
            product = algebra.reduced_product(algebra.generator(i),
                                              algebra.generator(j))
            pair_elem = group.multiply(group.reflection(i),
                                       group.reflection(j))
            vid = lat.index.get(pair_elem)
            in_l2 = vid is not None and lat.rank[vid] == 2
            if i == j or not in_l2:
                _require(product == {}, ("pair should vanish", i, j))
                zero_pairs += 1
    rank2 = lat.rank_row(2) if lat.n >= 2 else ()
    for vid in rank2:
        total = {}
        for s in lat.reduced_factorizations(vid):
            part = algebra.reduced_product(algebra.generator(s[0]),
                                           algebra.generator(s[1]))
            total = chain_sum((total, 1), (part, 1))
        _require(total == {}, ("rank-2 relation fails", lat.keys[vid]))
    return f"{zero_pairs} vanishing pairs, {len(rank2)} rank-2 sums"


def check_unitriangular(algebra: ChainAlgebra, rng) -> str:
    """Each full basis chain has its label as maximal key, and each cycle
    basis expansion its label less the last entry, with coefficient 1:
    the shape both the peel and the triangular solve rely on."""
    n = algebra.group.rank
    bases = [(algebra.full_basis(k), lambda label: label)
             for k in range(n + 1)]
    bases += [(algebra.cycle_basis(k), lambda label: label[:-1])
              for k in range(1, n + 1)]
    entries = 0
    for basis, lead in bases:
        _require(len(basis.max_key_to_pos) == len(basis.labels),
                 ("leading keys repeat", basis.degree))
        for label, expansion in zip(basis.labels, basis.expansions):
            key = lead(label)
            _require(max(expansion) == key,
                     ("maximal key moved", basis.degree, label))
            _require(expansion[key] == 1,
                     ("leading coefficient", basis.degree, label))
            entries += 1
    return f"{entries} basis chains"


def check_span_equality(algebra: ChainAlgebra, rng) -> str:
    """Every reduced factorization has integer coordinates in the full
    basis.  The decreasing factorizations label that basis and are
    reduced, and the basis is unitriangular, so this is equality of the
    integer spans of the reduced and the decreasing chains.  The chains
    are peeled: the triangular solve reads only the leading keys, so it
    cannot see a chain that leaves the span below its maximal key."""
    lat = algebra.lat
    solved = 0
    for vid in range(lat.size):
        basis = algebra.full_basis(lat.rank[vid])
        for seq in lat.reduced_factorizations(vid):
            try:
                algebra.coords_in_basis(algebra.alternating_chain(seq), basis)
            except ValueError as err:
                _require(False, (lat.keys[vid], seq, str(err)))
            solved += 1
    return f"{solved} reduced factorizations of {lat.size} elements"


def check_algebra_exact(algebra: ChainAlgebra, rng) -> str:
    complex_ = build_algebra_complex(algebra)
    complex_.check_square_zero()
    groups = homology_of(complex_)
    _require(all(h.is_trivial for h in groups), [str(h) for h in groups])
    lat = algebra.lat
    for k in complex_.degrees[1:]:
        expected = len(lat.rank_prefix_basis(k - 1))
        _, rank = invariant_factors(complex_.matrices[k])
        _require(rank == expected, ("differential rank", k, rank, expected))
    return "acyclic with predicted differential ranks"


def check_boundary_squares(algebra: ChainAlgebra, rng,
                           cap: int = DEFAULT_GROUP_CAP) -> str:
    """The boundaries square to zero: materialized for FP and MW, and for
    FQ, FQ0 and M when |W| is at most both ``MATERIALIZE_LIMIT`` and the
    group cap; in group-ring form otherwise."""
    enumerable = algebra.group.ctype.group_order <= min(MATERIALIZE_LIMIT, cap)
    spaces = [s for s in SPACES if s not in ENUMERATING_SPACES]
    if enumerable:
        spaces += ENUMERATING_SPACES
    for space in spaces:
        build_complex(algebra, space).check_square_zero()
    details = [f"{space} materialized" for space in spaces]
    if not enumerable:
        _require(group_ring_square_is_zero(algebra, "FQ"), "FQ group-ring")
        _require(group_ring_square_is_zero(algebra, "M"), "M group-ring")
        details.append("/".join(ENUMERATING_SPACES) + " in group-ring form")
    return ", ".join(details)


def check_fibre_doubling(algebra: ChainAlgebra, rng,
                         cap: int = DEFAULT_GROUP_CAP) -> str:
    """FQ homology is the FQ0 homology doubled.

    Structural argument, valid for every group: the boundary multiplies
    the group slot on the right by single reflections only, so it
    preserves the splitting of FQ by the parity of det(w)(-1)^degree,
    one part being FQ0; left translation by any fixed odd element is a
    chain isomorphism between the two parts.  The code checks the
    support fact; groups of order at most both ``DOUBLING_LIMIT`` and the
    group cap are also compared numerically, the FQ0 complex reduced
    over the group ring against the FQ complex with every basis chain
    kept, so the reduction is checked by a route that does not use it."""
    _require(fibre_support_is_reflections(algebra),
             "boundary support is not reflections")
    order = algebra.group.ctype.group_order
    if order <= min(DOUBLING_LIMIT, cap):
        full = homology_of(_unreduced_complex(algebra, "FQ"))
        half = homology_of(build_complex(algebra, "FQ0"))
        _require(len(full) == len(half),
                 ("degree counts", len(full), len(half)))
        for got, base in zip(full, half):
            _require(got == base.doubled(), (str(got), str(base)))
        return "support check + numeric comparison"
    return "support check (group too large to enumerate)"


def check_leibniz(algebra: ChainAlgebra, rng) -> str:
    """d(beta_t) = (-1)^(k-i) d(beta_pre) beta_suf + beta_pre d(beta_suf)
    for every split of random reduced sequences, products in the
    algebra."""
    lat = algebra.lat
    candidates = [vid for vid in range(lat.size) if lat.rank[vid] >= 2]
    if not candidates:
        return "no elements of rank 2 or more"
    checked = 0
    for _ in range(30):
        vid = rng.choice(candidates)
        rex = lat.reduced_factorizations(vid)
        seq = rex[rng.randrange(len(rex))]
        k = len(seq)
        lhs = algebra.interval_cycle(seq)
        for i in range(1, k):
            pre, suf = seq[:i], seq[i:]
            sign = -1 if (k - i) % 2 else 1
            rhs = chain_sum(
                (algebra.reduced_product(algebra.interval_cycle(pre),
                                         algebra.alternating_chain(suf)),
                 sign),
                (algebra.reduced_product(algebra.alternating_chain(pre),
                                         algebra.interval_cycle(suf)), 1))
            _require(lhs == rhs, ("Leibniz fails", seq, i))
            checked += 1
    return f"{checked} splits"


def check_poincare_ranks(algebra: ChainAlgebra, rng) -> str:
    """Graded ranks of the algebra match the Moebius polynomial
    sum_w mu(w) (-q)^rank(w) coefficientwise."""
    lat = algebra.lat
    n = algebra.group.rank
    expected = [0] * (n + 1)
    for vid in range(lat.size):
        k = lat.rank[vid]
        expected[k] += lat.mobius(vid) * (-1) ** k
    got = [len(algebra.full_basis(k).labels) for k in range(n + 1)]
    _require(got == expected, (got, expected))
    return f"coefficients {got}"


def check_shuffle_associative(algebra: ChainAlgebra, rng) -> str:
    count = 0
    for seq in _random_sequences(algebra, rng, 50, 3):
        x, y, z = ({(p,): 1} for p in seq)
        left = algebra.shuffle_product(algebra.shuffle_product(x, y), z)
        right = algebra.shuffle_product(x, algebra.shuffle_product(y, z))
        _require(left == right, ("associativity fails", seq))
        count += 1
    return f"{count} random triples"
