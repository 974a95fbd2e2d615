"""Integer normal forms and homology assembly.

One elimination computes every Smith form, so each check runs it
through both ``invariant_factors`` and ``_sparse_diagonalize`` against
an oracle that shares none of its code: determinantal divisors (the k-th
invariant factor is gcd(all k-minors) / gcd(all (k-1)-minors), by
brute-force minor expansion) for small matrices, and a known diagonal
scrambled by unimodular operations for shapes on both sides of
``DENSE_LIMIT``, the size below which the benchmark tracer labels a
matrix dense.
"""

import os
import random
import subprocess
import sys
import textwrap
import time
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import algebra_for, per_boundary_homology
from ncphom.complexes import _unreduced_complex
from ncphom.homology import (DENSE_LIMIT, BoundaryMatrix, HomologyGroup,
                             compose, euler_characteristic, homology_of,
                             invariant_factors, _dense_diagonalize,
                             _divisibility_fixup, _sparse_diagonalize)


def _matrix_from_rows(rows):
    m = BoundaryMatrix(len(rows), len(rows[0]) if rows else 0)
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v:
                m.entries[(r, c)] = v
    return m


def _det_list(sub):
    n = len(sub)
    if n == 0:
        return 1
    if n == 1:
        return sub[0][0]
    total = 0
    for j in range(n):
        if sub[0][j]:
            sign = -1 if j % 2 else 1
            minor = [row[:j] + row[j + 1:] for row in sub[1:]]
            total += sign * sub[0][j] * _det_list(minor)
    return total


def determinantal_divisor_factors(rows):
    """Invariant factors via gcds of k-minors."""
    m, n = len(rows), len(rows[0]) if rows else 0
    previous = 1
    factors = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rsel in combinations(range(m), k):
            for csel in combinations(range(n), k):
                sub = [[rows[r][c] for c in csel] for r in rsel]
                g = gcd(g, abs(_det_list(sub)))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


def assert_factors(matrix, expected):
    """``invariant_factors`` and the bare elimination both give the
    expected divisibility chain."""
    assert invariant_factors(matrix) == (expected, len(expected))
    diag, _ = _sparse_diagonalize(matrix)
    sparse = _divisibility_fixup([abs(d) for d in diag if d])
    assert sparse == expected


def test_one_elimination_serves_both_size_labels():
    assert _dense_diagonalize is _sparse_diagonalize


def test_smith_form_against_determinantal_divisors():
    rng = random.Random(41)
    for trial in range(500):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if not any(any(row) for row in rows):
            continue
        assert_factors(_matrix_from_rows(rows),
                       determinantal_divisor_factors(rows))


def test_smith_form_of_unit_free_matrices():
    """No entry is a unit, but the Smith form often has units, so every
    unit pivot comes from a remainder of a least-entry pivot."""
    rng = random.Random(43)
    values = [2, 3, 4, 6, 9, -2, -3, -4, -6, -9]
    with_units = 0
    for trial in range(200):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
        expected = determinantal_divisor_factors(rows)
        assert_factors(_matrix_from_rows(rows), expected)
        with_units += 1 in expected
    assert with_units > 100


def test_smith_form_known_cases():
    assert invariant_factors(_matrix_from_rows([[2, 0], [0, 3]])) == (
        [1, 6], 2)
    assert invariant_factors(BoundaryMatrix(3, 3)) == ([], 0)
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert determinantal_divisor_factors(rows) == [2, 2, 156]
    assert invariant_factors(_matrix_from_rows(rows)) == ([2, 2, 156], 3)


def test_smith_form_is_permutation_invariant():
    rng = random.Random(8)
    for _ in range(40):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        base = invariant_factors(_matrix_from_rows(rows))
        rperm = rng.sample(range(m), m)
        cperm = rng.sample(range(n), n)
        shuffled = [[rows[r][c] for c in cperm] for r in rperm]
        assert invariant_factors(_matrix_from_rows(shuffled)) == base


def test_divisibility_fixup_produces_a_chain():
    assert _divisibility_fixup([2, 3]) == [1, 6]
    assert _divisibility_fixup([4, 6]) == [2, 12]
    assert _divisibility_fixup([2, 2, 3]) == [1, 2, 6]
    assert _divisibility_fixup([6, 4, 9]) == [1, 6, 36]
    assert _divisibility_fixup([12, 18, 8, 27]) == [1, 6, 36, 216]
    rng = random.Random(13)
    for _ in range(100):
        factors = _divisibility_fixup(
            [rng.randint(1, 60) for _ in range(rng.randint(1, 6))])
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def _pairwise_fixup(factors):
    """The divisibility fixup as it was before units were set aside: every
    pair compared, 1s included."""
    factors = sorted(factors)
    changed = True
    while changed:
        changed = False
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                a, b = factors[i], factors[j]
                if b % a:
                    g = gcd(a, b)
                    factors[i] = g
                    factors[j] = a * b // g
                    changed = True
        if changed:
            factors.sort()
    return factors


def test_divisibility_fixup_matches_the_pairwise_fixup():
    rng = random.Random(17)
    for _ in range(300):
        factors = [1] * rng.randint(0, 40) + [
            rng.choice([2, 3, 4, 5, 6, 9, 10, 12, 30])
            for _ in range(rng.randint(0, 6))]
        rng.shuffle(factors)
        assert _divisibility_fixup(factors) == _pairwise_fixup(factors), \
            factors


def test_boundary_matrix_operations():
    m = _matrix_from_rows([[1, 2], [0, -1]])
    assert m.entries == {(0, 0): 1, (0, 1): 2, (1, 1): -1}
    product = compose(_matrix_from_rows([[1, 1]]),
                      _matrix_from_rows([[1], [-1]]))
    assert product.entries == {}
    assert product.rows == 1 and product.cols == 1


class _Complex:
    def __init__(self, degrees, dims, matrices):
        self.degrees = degrees
        self.dims = dims
        self.matrices = matrices


def test_homology_of_circle():
    # one vertex, one loop: zero boundary
    cx = _Complex([0, 1], {0: 1, 1: 1}, {1: BoundaryMatrix(1, 1)})
    assert [str(h) for h in homology_of(cx)] == ["Z", "Z"]
    assert euler_characteristic(cx) == 0


def test_homology_of_two_sphere():
    # cells of the tetrahedron boundary: 4 vertices, 6 edges, 4 faces
    verts = list(range(4))
    edges = list(combinations(verts, 2))
    faces = list(combinations(verts, 3))
    d1 = BoundaryMatrix(4, 6)
    for c, (a, b) in enumerate(edges):
        d1.entries[(a, c)] = -1
        d1.entries[(b, c)] = 1
    d2 = BoundaryMatrix(6, 4)
    for c, (a, b, e) in enumerate(faces):
        for j, face in enumerate(((b, e), (a, e), (a, b))):
            d2.entries[(edges.index(face), c)] = -1 if j % 2 else 1
    assert not compose(d1, d2).entries
    cx = _Complex([0, 1, 2], {0: 4, 1: 6, 2: 4}, {1: d1, 2: d2})
    assert [str(h) for h in homology_of(cx)] == ["Z", "0", "Z"]
    assert euler_characteristic(cx) == 2


def test_homology_with_torsion():
    # one 0-cell, one 1-cell, one 2-cell attached with degree 2: the
    # projective plane
    d1 = BoundaryMatrix(1, 1)
    d2 = _matrix_from_rows([[2]])
    cx = _Complex([0, 1, 2], {0: 1, 1: 1, 2: 1}, {1: d1, 2: d2})
    assert [str(h) for h in homology_of(cx)] == ["Z", "Z_2", "0"]
    # Klein bottle: two 1-cells, square glued with a a b -b
    d2 = _matrix_from_rows([[2], [0]])
    cx = _Complex([0, 1, 2], {0: 1, 1: 2, 2: 1}, {1: BoundaryMatrix(1, 2),
                                                  2: d2})
    assert [str(h) for h in homology_of(cx)] == ["Z", "Z+Z_2", "0"]


def test_homology_degrees_can_start_above_zero():
    cx = _Complex([1, 2], {1: 2, 2: 1}, {2: _matrix_from_rows([[3], [0]])})
    groups = homology_of(cx)
    assert [str(h) for h in groups] == ["Z+Z_3", "0"]
    assert euler_characteristic(cx) == 1


def test_compose_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="cannot compose a 2x3 matrix"):
        compose(BoundaryMatrix(2, 3), BoundaryMatrix(2, 2))


MALFORMED_COMPLEXES = [
    (_Complex([0, 2], {0: 1, 2: 1}, {2: BoundaryMatrix(1, 1)}),
     "^chain degrees must be consecutive and ascending: \\[0, 2\\]$"),
    (_Complex([0, 1], {0: 1, 1: 2}, {1: BoundaryMatrix(1, 1)}),
     "^boundary 1 is 1x1, not 1x2$"),
    (_Complex([], {}, {}), "^chain complex has no degrees$"),
    (_Complex([0, 1], {0: 1, 1: 1}, {}),
     "^chain complex has no boundary matrix in degree 1$"),
]


def test_homology_of_rejects_gapped_degrees_and_wrong_shapes():
    for complex_, message in MALFORMED_COMPLEXES:
        with pytest.raises(ValueError, match=message):
            homology_of(complex_)
    with pytest.raises(ValueError, match="^chain complex has no degrees$"):
        euler_characteristic(_Complex([], {}, {}))


def test_homology_group_formatting_and_dicts():
    assert str(HomologyGroup(0)) == "0"
    assert str(HomologyGroup(1)) == "Z"
    assert str(HomologyGroup(2)) == "Z^2"
    assert str(HomologyGroup(2, (2, 6))) == "Z^2+Z_2+Z_6"
    assert str(HomologyGroup(0, (3,))) == "Z_3"
    g = HomologyGroup(4, (2, 2))
    assert HomologyGroup.from_dict(g.to_dict()) == g
    assert g.doubled() == HomologyGroup(8, (2, 2, 2, 2))
    assert HomologyGroup(0).is_trivial
    assert not g.is_trivial


def test_homology_group_rejects_broken_torsion():
    with pytest.raises(ValueError):
        HomologyGroup(1, (3, 2))
    with pytest.raises(ValueError):
        HomologyGroup(1, (1,))
    with pytest.raises(ValueError):
        HomologyGroup(-1)


def test_answer_checks_survive_python_dash_o():
    """The checks that guard answers raise under ``python -O`` too."""
    script = textwrap.dedent("""
        from ncphom.homology import BoundaryMatrix, HomologyGroup, compose
        from ncphom.homology import homology_of

        class Complex:
            def __init__(self, degrees):
                self.degrees = degrees
                self.dims = {d: 1 for d in degrees}
                self.matrices = {d: BoundaryMatrix(1, 1) for d in degrees}

            def with_matrix(self, d, rows, cols):
                self.matrices[d] = BoundaryMatrix(rows, cols)
                return self

        cases = [
            lambda: compose(BoundaryMatrix(2, 3), BoundaryMatrix(2, 3)),
            lambda: HomologyGroup(-1),
            lambda: HomologyGroup(0, (1,)),
            lambda: HomologyGroup(0, (3, 2)),
            lambda: homology_of(Complex([2, 1])),
            lambda: homology_of(Complex([0, 2])),
            lambda: homology_of(Complex([0, 1]).with_matrix(1, 2, 1)),
            lambda: homology_of(Complex([0, 1]).with_matrix(1, 1, 2)),
        ]
        for case in cases:
            try:
                case()
            except ValueError:
                print("raised")
            else:
                print("passed")

        # Two edges between two vertices and a disk on the loop they form:
        # the unit pivot of d1 matches a row of d2.
        disk = Complex([0, 1, 2])
        disk.dims = {0: 2, 1: 2, 2: 1}
        disk.matrices = {
            1: BoundaryMatrix(2, 2, {(0, 0): -1, (1, 0): 1,
                                     (0, 1): -1, (1, 1): 1}),
            2: BoundaryMatrix(2, 1, {(0, 0): 1, (1, 0): -1})}
        print(*homology_of(disk))
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised"] * 8 + ["Z", "0", "0"]


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_smith_form_rejects_entries_outside_or_zero(flags):
    """An entry outside the shape, or a stored zero, raises a ValueError
    that names it, with and without ``python -O``, instead of answering
    wrongly or failing inside the elimination."""
    script = textwrap.dedent("""
        from ncphom.homology import BoundaryMatrix, homology_of
        from ncphom.homology import invariant_factors

        class Complex:
            degrees = [0, 1]
            dims = {0: 1, 1: 1}
            matrices = {1: BoundaryMatrix(1, 1, {(3, 0): 1})}

        cases = [
            lambda: invariant_factors(
                BoundaryMatrix(2, 2, {(0, 0): 2, (0, 1): 0})),
            lambda: invariant_factors(
                BoundaryMatrix(3, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 0,
                                      (2, 1): 3})),
            lambda: invariant_factors(BoundaryMatrix(1, 1, {(0, 5): 3})),
            lambda: invariant_factors(BoundaryMatrix(1, 1, {(-1, 0): 3})),
            lambda: homology_of(Complex()),
        ]
        for case in cases:
            try:
                print("returned", case())
            except ValueError as err:
                print(err)
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, *flags, "-c", script],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "entry (0, 1) of the 2x2 matrix is zero",
        "entry (1, 0) of the 3x2 matrix is zero",
        "entry (0, 5) lies outside the 1x1 matrix",
        "entry (-1, 0) lies outside the 1x1 matrix",
        "entry (3, 0) lies outside the 1x1 matrix",
    ]


def test_sparse_path_handles_negative_pivots():
    # regression guard: balanced remainders must shrink against negative
    # pivots too
    rows = [[-7, 3, 0], [5, -11, 2], [0, 4, -9]]
    assert_factors(_matrix_from_rows(rows),
                   determinantal_divisor_factors(rows))


def scramble(diagonal, m, n, operations, rng):
    """The m x n matrix with ``diagonal`` on its diagonal after
    ``operations`` random unimodular row and column operations and random
    row and column permutations."""
    rows = [[0] * n for _ in range(m)]
    for i, f in enumerate(diagonal):
        rows[i][i] = f
    for _ in range(operations):
        mult = rng.choice([-2, -1, 1, 2])
        if rng.random() < 0.5:
            i, j = rng.sample(range(m), 2)
            rows[i] = [a + mult * b for a, b in zip(rows[i], rows[j])]
        else:
            i, j = rng.sample(range(n), 2)
            for row in rows:
                row[i] += mult * row[j]
    rng.shuffle(rows)
    perm = rng.sample(range(n), n)
    rows = [[row[c] for c in perm] for row in rows]
    return _matrix_from_rows(rows)


@st.composite
def scrambled_diagonals(draw, sizes):
    """A diagonal of known invariant factors (1s mixed with 2, 6 and 12,
    which already form a divisibility chain), scrambled by random
    unimodular row and column operations and permutations.  The
    non-unit factors leave a core after the unit pivots."""
    m = draw(sizes)
    n = draw(sizes)
    others = draw(st.lists(st.sampled_from([2, 6, 12]), max_size=6))
    others = others[:min(m, n)]
    ones = draw(st.integers(0 if others else 1, min(m, n) - len(others)))
    factors = [1] * ones + others
    # m + n operations give about as many nonzeros per column as the
    # boundary matrices have (up to about 6); twice that is denser.
    operations = draw(st.sampled_from([1, 2])) * (m + n)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    matrix = scramble(draw(st.permutations(factors)), m, n, operations, rng)
    return matrix, sorted(factors)


# Shapes on both sides of DENSE_LIMIT, in each dimension.
SIZES = st.one_of(st.integers(2, 12),
                  st.integers(DENSE_LIMIT - 20, DENSE_LIMIT + 30))


@settings(max_examples=80, deadline=None)
@given(scrambled_diagonals(SIZES))
def test_scrambled_diagonals_on_both_paths(case):
    matrix, expected = case
    assert_factors(matrix, expected)


def test_dense_scrambled_diagonal_below_dense_limit_finishes():
    """A 179 x 189 matrix with 6708 nonzeros: the textbook dense
    reduction that once took every matrix of this size did not finish it
    in 20 s, its entries growing without bound."""
    rng = random.Random(9)
    m, n = rng.randint(150, DENSE_LIMIT), rng.randint(150, DENSE_LIMIT)
    others = [rng.choice([2, 6, 12]) for _ in range(6)]
    factors = [1] * (min(m, n) - 6 - rng.randint(0, 10)) + others
    diagonal = rng.sample(factors, len(factors))
    matrix = scramble(diagonal, m, n, 2 * (m + n), rng)
    assert (matrix.rows, matrix.cols, len(matrix.entries)) == (179, 189, 6708)
    start = time.perf_counter()
    assert invariant_factors(matrix) == (sorted(factors), len(factors))
    assert time.perf_counter() - start < 1.0


def test_unit_free_scrambled_diagonal():
    """Eight each of 6, 10 and 15 on a 30 x 34 diagonal, scrambled with
    no unit entry.  Prime by prime the exponents are eight 0s and sixteen
    1s, so the invariant factors are eight 1s and sixteen 30s: every unit
    is a remainder."""
    rng = random.Random(0)
    diagonal = rng.sample([6, 10, 15] * 8, 24)
    matrix = scramble(diagonal, 30, 34, 2 * (30 + 34), random.Random(0))
    assert len(matrix.entries) == 556
    assert not any(v in (1, -1) for v in matrix.entries.values())
    assert_factors(matrix, [1] * 8 + [30] * 16)


@pytest.mark.parametrize("name,space,ranks", [
    ("B3", "M", [47, 376, 465]),
    ("B3", "FQ", [46, 322]),
])
def test_pinned_sparse_boundary_ranks(name, space, ranks):
    """Every sparse boundary of these tables has only unit invariant
    factors; the ranks are those of the minimal-pivot elimination that
    the unit-pivot elimination replaced, on the complexes with every
    basis chain kept."""
    cx = _unreduced_complex(algebra_for(name), space)
    sparse = [cx.matrices[d] for d in cx.degrees[1:]
              if max(cx.matrices[d].rows, cx.matrices[d].cols) > DENSE_LIMIT]
    results = [invariant_factors(m) for m in sparse]
    assert [rank for _, rank in results] == ranks
    assert all(set(factors) == {1} for factors, _ in results)


def _torsion_chain(orders):
    """The invariant factors above 1 of the direct sum of Z_n over
    ``orders``, prime by prime: the largest power of each prime goes to
    the last factor, the next to the one before, and so on."""
    powers: dict = {}
    for n in orders:
        p = 2
        while n > 1:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    length = max((len(qs) for qs in powers.values()), default=0)
    chain = [1] * length
    for qs in powers.values():
        for i, q in enumerate(sorted(qs)):
            chain[length - len(qs) + i] *= q
    return tuple(chain)


def known_complex(rng, top, operations):
    """A complex in chain degrees 0..top with known homology: a direct
    sum of copies of Z in one degree and of Z --n--> Z from degree k to
    k - 1, scrambled by a random unimodular basis change in every degree,
    d_k -> P_{k-1}^-1 d_k P_k.  Returns the complex and its homology."""
    degrees = list(range(top + 1))
    free = {k: rng.randint(0, 2) for k in degrees}
    pieces = [(k, rng.choice([1, 1, 1, 2, 3, 4, 6]))
              for k in degrees[1:] for _ in range(rng.randint(0, 5))]
    slots: dict = {k: ["free"] * free[k] for k in degrees}
    for i, (k, n) in enumerate(pieces):
        slots[k].append(("source", i))
        slots[k - 1].append(("target", i))
    for k in degrees:
        rng.shuffle(slots[k])
    dims = {k: len(slots[k]) for k in degrees}
    dense = {k: [[0] * dims[k] for _ in range(dims[k - 1])]
             for k in degrees[1:]}
    for k in degrees[1:]:
        target = {slot[1]: r for r, slot in enumerate(slots[k - 1])
                  if slot != "free" and slot[0] == "target"}
        for c, slot in enumerate(slots[k]):
            if slot != "free" and slot[0] == "source":
                dense[k][target[slot[1]]][c] = pieces[slot[1]][1]
    # A basis change e_i -> e_i + m e_j in degree k adds m times column j
    # of d_k to column i and subtracts m times row i of d_{k+1} from row j.
    for _ in range(operations):
        k = rng.choice(degrees)
        if dims[k] < 2:
            continue
        i, j = rng.sample(range(dims[k]), 2)
        m = rng.choice([-2, -1, 1, 2])
        if k in dense:
            for row in dense[k]:
                row[i] += m * row[j]
        if k + 1 in dense:
            up = dense[k + 1]
            up[j] = [a - m * b for a, b in zip(up[j], up[i])]
    matrices = {}
    for k in degrees[1:]:
        matrix = BoundaryMatrix(dims[k - 1], dims[k])
        for r, row in enumerate(dense[k]):
            for c, v in enumerate(row):
                if v:
                    matrix.entries[r, c] = v
        matrices[k] = matrix
    groups = [HomologyGroup(free[k], _torsion_chain(
        n for source, n in pieces if source == k + 1)) for k in degrees]
    return _Complex(degrees, dims, matrices), groups


def test_torsion_chain_oracle():
    assert _torsion_chain([]) == ()
    assert _torsion_chain([2, 3]) == (6,)
    assert _torsion_chain([2, 4, 6, 3]) == (2, 6, 12)
    assert _torsion_chain([1, 1]) == ()


def test_unit_columns_stop_at_the_first_non_unit_step():
    """The columns of the unit pivots the elimination took before its
    first non-unit step: all of them for a permuted identity, none when
    the first pivot is not a unit, and none for a zero matrix."""
    identity = _matrix_from_rows([[0, 1, 0], [0, 0, -1], [1, 0, 0]])
    assert sorted(invariant_factors(identity).unit_columns) == [0, 1, 2]
    assert sorted(_sparse_diagonalize(identity)[1]) == [0, 1, 2]
    # 2 and 3 leave the unit 1 = 3 - 2 only after a non-unit step.
    coprime = _matrix_from_rows([[2, 3]])
    assert invariant_factors(coprime) == ([1], 1)
    assert invariant_factors(coprime).unit_columns == []
    # The unit in column 0 goes first; then only non-unit steps remain.
    mixed = _matrix_from_rows([[1, 0, 0], [0, 2, 3]])
    assert invariant_factors(mixed).unit_columns == [0]
    assert invariant_factors(BoundaryMatrix(2, 2)).unit_columns == ()


def test_known_complexes_on_both_routes(monkeypatch):
    """Scrambled direct sums of Z and Z --n--> Z: the one-pass homology
    and the per-boundary route both give the homology of the sum.  Many
    boundaries take a unit pivot after a non-unit step, whose column the
    next boundary must keep as a row."""
    import ncphom.homology as homology

    results = []

    def record(matrix):
        out = invariant_factors(matrix)
        results.append(out)
        return out
    monkeypatch.setattr(homology, "invariant_factors", record)
    rng = random.Random(61)
    late_units = 0
    for trial in range(300):
        cx, expected = known_complex(rng, rng.randint(1, 4),
                                     rng.randint(0, 60))
        for d in cx.degrees[2:]:
            assert not compose(cx.matrices[d - 1], cx.matrices[d]).entries
        del results[:]
        assert homology_of(cx) == expected, trial
        late_units += any(len(smith.unit_columns) < smith[0].count(1)
                          for smith in results[:-1])
        assert per_boundary_homology(cx) == expected, trial
    assert late_units > 20
