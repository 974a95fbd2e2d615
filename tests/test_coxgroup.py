"""Group backends: length, order, conjugation, enumeration."""

import random
from fractions import Fraction

import pytest

from conftest import group_for
from ncphom import CoxeterGroup, GroupCapExceeded, PartitionLattice
from ncphom.rootsys import CoxeterType, RootSystem
from ncphom.scalars import mat_mul, mat_rank, mat_vec

SMALL_TYPES = ("A1", "A2", "A3", "B2", "B3", "I2(3)", "I2(4)",
               "I2(5)", "I2(6)")


def _bfs_reflection_lengths(group):
    """Independent oracle: word length over the full reflection set."""
    lengths = {group.identity: 0}
    frontier = [group.identity]
    while frontier:
        new = []
        for w in frontier:
            for t in group.reflection_keys:
                img = group.multiply(w, t)
                if img not in lengths:
                    lengths[img] = lengths[w] + 1
                    new.append(img)
        frontier = new
    return lengths


@pytest.mark.parametrize("name", SMALL_TYPES)
def test_length_equals_reflection_word_length(name):
    group = group_for(name)
    oracle = _bfs_reflection_lengths(group)
    assert len(oracle) == group.ctype.group_order
    for w, expected in oracle.items():
        assert group.reflection_length(w) == expected


def _det(matrix):
    rows = [list(r) for r in matrix]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        pv = rows[col][col]
        det *= pv
        for r in range(col + 1, n):
            if rows[r][col]:
                f = rows[r][col] / pv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_parity_is_the_determinant_sign(name):
    group, _, matrix_of = _ambient_matrices(name)
    assert len(matrix_of) == len(group.enumerate_elements())
    for w in group.enumerate_elements():
        expected = 0 if _det(matrix_of[w]) == 1 else 1
        assert group.parity(w) == expected


def test_absolute_order_basics():
    group = group_for("A3")
    t = group.reflection(2)
    assert group.absolute_leq(group.identity, group.gamma)
    assert group.absolute_leq(t, group.gamma)
    assert group.absolute_leq(t, t)
    assert not group.absolute_leq(group.gamma, t)


@pytest.mark.parametrize("name", SMALL_TYPES)
def test_gamma_has_full_length(name):
    group = group_for(name)
    assert group.reflection_length(group.gamma) == group.ctype.rank


def test_enumeration_counts_and_cap():
    assert len(group_for("A3").enumerate_elements()) == 24
    assert len(group_for("I2(5)").enumerate_elements()) == 10
    with pytest.raises(GroupCapExceeded, match="384"):
        group_for("B4").enumerate_elements(cap=100)


def test_enumeration_closed_under_product():
    group = group_for("B2")
    elements = set(group.enumerate_elements())
    for a in elements:
        for b in elements:
            assert group.multiply(a, b) in elements


@pytest.mark.parametrize("name", ["A3", "I2(7)"])
def test_conjugate_position_matches_group_conjugation(name):
    group = group_for(name)
    rng = random.Random(9)
    for _ in range(60):
        i = rng.randrange(group.num_reflections)
        j = rng.randrange(group.num_reflections)
        tj = group.reflection(j)
        conj = group.multiply(group.multiply(tj, group.reflection(i)), tj)
        assert group.reflection(group.conjugate_position(i, j)) == conj
        assert group.reflection_position(conj) == group.conjugate_position(
            i, j)


def test_inverse_and_sequence_product():
    group = group_for("B3")
    rng = random.Random(4)
    for _ in range(30):
        seq = tuple(rng.randrange(group.num_reflections) for _ in range(4))
        w = group.sequence_product(seq)
        assert group.multiply(w, group.inverse(w)) == group.identity
    assert group.sequence_product(()) == group.identity


def test_dihedral_backend_relations():
    d = group_for("I2(7)")
    elements = d.enumerate_elements()
    assert len(elements) == 14
    for a in elements:
        assert d.multiply(a, d.inverse(a)) == d.identity
        for b in elements:
            for c in elements:
                assert d.multiply(d.multiply(a, b), c) == d.multiply(
                    a, d.multiply(b, c))
    reflections = d.reflection_keys
    assert all(d.reflection_length(t) == 1 for t in reflections)
    assert d.reflection_length(d.identity) == 0
    assert d.reflection_length(d.gamma) == 2


def test_dihedral_rejects_degenerate_order():
    with pytest.raises(ValueError):
        CoxeterGroup(CoxeterType("I", 2, 2))


def test_crystallographic_dihedral_agreement():
    """I2(3) is A2 in disguise: same absolute-order profile."""
    for pair in (("I2(3)", "A2"), ("I2(4)", "B2")):
        profiles = []
        for name in pair:
            group = CoxeterGroup.from_name(name)
            lengths = sorted(group.reflection_length(w)
                             for w in group.enumerate_elements())
            profiles.append(lengths)
        assert profiles[0] == profiles[1]


# -- differential checks against independent models -------------------------

MATRIX_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "D3", "D4",
                "F4", "H3")
DIHEDRAL_ORDERS = range(3, 13)


def _ambient_matrices(name):
    """Oracle: every element paired with its ambient matrix, by a BFS that
    multiplies group keys and reflection matrices side by side."""
    group = group_for(name)
    rs = RootSystem(group.ctype)
    simple = set(rs.simple_roots)
    gens = [(group.reflection(k), rs.reflection_matrices[k])
            for k, root in enumerate(rs.ordered_roots) if root in simple]
    assert len(gens) == group.rank
    matrix_of = {group.identity: rs.identity}
    frontier = list(matrix_of)
    while frontier:
        new = []
        for w in frontier:
            for key, mat in gens:
                img = group.multiply(w, key)
                if img not in matrix_of:
                    matrix_of[img] = mat_mul(matrix_of[w], mat)
                    new.append(img)
        frontier = new
    return group, rs, matrix_of


@pytest.mark.parametrize("name", MATRIX_TYPES)
def test_keys_multiply_like_ambient_matrices(name):
    group, rs, matrix_of = _ambient_matrices(name)
    assert len(matrix_of) == group.ctype.group_order
    assert len(set(matrix_of.values())) == len(matrix_of)
    assert matrix_of[group.gamma] == rs.coxeter_matrix_form
    for k, mat in enumerate(rs.reflection_matrices):
        assert matrix_of[group.reflection(k)] == mat
    # keys are the permutations the matrices induce on the 2N roots
    roots = rs.ordered_roots + tuple(tuple(-x for x in r)
                                     for r in rs.ordered_roots)
    where = {r: j for j, r in enumerate(roots)}
    for w, mat in matrix_of.items():
        assert w == tuple(where[mat_vec(mat, r)] for r in roots)
    keys = list(matrix_of)
    rng = random.Random(5)
    for _ in range(300):
        a, b = rng.choice(keys), rng.choice(keys)
        assert matrix_of[group.multiply(a, b)] == mat_mul(matrix_of[a],
                                                          matrix_of[b])
        assert matrix_of[group.inverse(a)] == tuple(zip(*matrix_of[a]))


@pytest.mark.parametrize("name", MATRIX_TYPES + ("H4", "E6"))
def test_reflection_k_swaps_its_root_and_its_negative(name):
    group = CoxeterGroup.from_name(name)
    total = group.num_reflections
    assert len(group.identity) == 2 * total
    for k, t in enumerate(group.reflection_keys):
        assert t[k] == k + total and t[k + total] == k
        assert group.multiply(t, t) == group.identity
        assert group.reflection_length(t) == 1


@pytest.mark.parametrize("name", MATRIX_TYPES)
def test_length_is_the_field_rank_of_m_minus_identity(name):
    group, rs, matrix_of = _ambient_matrices(name)
    for w, mat in matrix_of.items():
        diff = tuple(tuple(x - y for x, y in zip(row, idrow))
                     for row, idrow in zip(mat, rs.identity))
        assert group.reflection_length(w) == mat_rank(diff)


def _symbolic_dihedral(m):
    """Oracle: I2(m) as pairs ("r", i) = (s2 s1)^(i-1) and
    ("t", i) = s1 (s2 s1)^(i-1), indices mod m in 1..m."""
    def norm(i):
        return (i - 1) % m + 1

    def multiply(a, b):
        (ka, i), (kb, j) = a, b
        if ka == "r":
            return ("r", norm(i + j - 1)) if kb == "r" else (
                "t", norm(j - i + 1))
        return ("t", norm(i + j - 1)) if kb == "r" else ("r", norm(j - i + 1))

    elements = [(k, i) for k in "rt" for i in range(1, m + 1)]
    return elements, multiply


def _dihedral_keys(group, m):
    """The group key of each symbolic element, from its defining word."""
    s1, s2 = group.reflection(0), group.reflection(m - 1)
    rotation = group.multiply(s2, s1)
    key_of = {}
    power = group.identity
    for i in range(1, m + 1):
        key_of[("r", i)] = power
        key_of[("t", i)] = group.multiply(s1, power)
        power = group.multiply(power, rotation)
    return key_of


@pytest.mark.parametrize("m", DIHEDRAL_ORDERS)
def test_dihedral_keys_match_the_symbolic_model(m):
    group = group_for(f"I2({m})")
    elements, multiply = _symbolic_dihedral(m)
    key_of = _dihedral_keys(group, m)
    assert len(set(key_of.values())) == 2 * m
    assert set(key_of.values()) == set(group.enumerate_elements())
    assert key_of[("r", m)] == group.gamma
    for i in range(m):
        assert key_of[("t", i + 1)] == group.reflection(i)
        for j in range(m):
            assert group.conjugate_position(i, j) == (2 * j - i) % m
    for a in elements:
        kind, i = a
        expected = 1 if kind == "t" else (0 if i == 1 else 2)
        assert group.reflection_length(key_of[a]) == expected
        for b in elements:
            assert group.multiply(key_of[a], key_of[b]) == key_of[
                multiply(a, b)]


LATTICE_RANK_SIZES = {
    "A1": [1, 1], "A2": [1, 3, 1], "A3": [1, 6, 6, 1],
    "A4": [1, 10, 20, 10, 1], "A5": [1, 15, 50, 50, 15, 1], "B2": [1, 4, 1], "B3": [1, 9, 9, 1],
    "B4": [1, 16, 36, 16, 1], "D3": [1, 6, 6, 1], "D4": [1, 12, 24, 12, 1],
    "D5": [1, 20, 70, 70, 20, 1],
    "F4": [1, 24, 55, 24, 1], "H3": [1, 15, 15, 1],
    "H4": [1, 60, 158, 60, 1],
    "I2(3)": [1, 3, 1], "I2(12)": [1, 12, 1],
}


@pytest.mark.parametrize("name", sorted(LATTICE_RANK_SIZES))
def test_lattice_rank_sizes_are_pinned(name):
    lat = PartitionLattice(group_for(name))
    assert [len(row) for row in lat.by_rank] == LATTICE_RANK_SIZES[name]
