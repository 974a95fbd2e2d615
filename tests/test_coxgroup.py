"""Group backends: length, order, conjugation, enumeration."""

import os
import random
import subprocess
import sys

import pytest

from conftest import group_for
from ncphom import CoxeterGroup, GroupCapExceeded, PartitionLattice
from ncphom.rootsys import CoxeterType, RootSystem
from test_scalars import _field_rank

SMALL_TYPES = ("A1", "A2", "A3", "B2", "B3", "I2(3)", "I2(4)",
               "I2(5)", "I2(6)")
DIAGRAM_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "D3", "D4",
                 "F4", "H3")


def _bfs_word_lengths(group, generators):
    """Independent oracle: word length over a generating set."""
    lengths = {group.identity: 0}
    frontier = [group.identity]
    while frontier:
        new = []
        for w in frontier:
            for t in generators:
                img = group.multiply(w, t)
                if img not in lengths:
                    lengths[img] = lengths[w] + 1
                    new.append(img)
        frontier = new
    return lengths


def _bfs_reflection_lengths(group):
    """Independent oracle: word length over the full reflection set."""
    return _bfs_word_lengths(group, group.reflection_keys)


@pytest.mark.parametrize("name", sorted(set(SMALL_TYPES + DIAGRAM_TYPES)
                                         | {"A5", "B5", "D5"}))
def test_length_equals_reflection_word_length(name):
    group = group_for(name)
    oracle = _bfs_reflection_lengths(group)
    assert len(oracle) == group.ctype.group_order
    for w, expected in oracle.items():
        assert group.reflection_length(w) == expected


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "H3"])
def test_parity_is_the_determinant_sign(name):
    """Each simple reflection has determinant -1, so det w is -1 to the
    word length of w over the simple reflections."""
    group = group_for(name)
    simples = [group.reflection(p)
               for p in RootSystem(group.ctype).simple_positions]
    oracle = _bfs_word_lengths(group, simples)
    assert len(oracle) == group.ctype.group_order
    for w, length in oracle.items():
        assert group.parity(w) == length % 2


@pytest.mark.parametrize("name", ["A1", "A3", "A4", "B3", "B4", "D4", "F4",
                                  "H3", "I2(5)", "I2(6)", "I2(8)"])
def test_parity_is_the_reflection_length_parity(name):
    """Every element is a product of l(w) reflections, each of
    determinant -1, so the parity read off the root permutation must be
    the parity of the reflection length."""
    group = CoxeterGroup.from_name(name)
    for w in group.enumerate_elements():
        assert group.parity(w) == group.reflection_length(w) % 2


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


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(5)"])
def test_position_tables_reproduce_multiply_and_inverse(name):
    """The right-regular table of every element, read as positions in
    the sorted element list, gives group.multiply for every pair, and
    the inverse position gives group.inverse."""
    group = group_for(name)
    elements = group.enumerate_elements()
    assert len(elements) == group.ctype.group_order
    assert list(elements) == sorted(set(elements))
    for h, y in enumerate(elements):
        assert elements.index(y) == h
        assert [elements[p] for p in elements.right(h)] == [
            group.multiply(x, y) for x in elements]
        assert elements[elements.inverse(h)] == group.inverse(y)


def test_position_tables_are_built_on_demand():
    """The table of one element builds only those of its search-tree
    ancestors: at most its Coxeter length plus one tables."""
    group = group_for("B3")
    elements = group.enumerate_elements()
    longest = max(range(len(elements)), key=lambda g: sum(
        1 for x in elements[g][:group.num_reflections]
        if x >= group.num_reflections))
    elements.right(longest)
    assert len(elements._right) == group.num_reflections + 1


def test_enumeration_closed_under_product():
    group = group_for("B2")
    elements = set(group.enumerate_elements())
    for a in elements:
        for b in elements:
            assert group.multiply(a, b) in elements


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(7)"])
def test_conjugate_position_matches_group_conjugation(name):
    group = group_for(name)
    rng = random.Random(9)
    for _ in range(60):
        i = rng.randrange(group.num_reflections)
        j = rng.randrange(group.num_reflections)
        tj = group.reflection(j)
        conj = group.multiply(group.multiply(tj, group.reflection(i)), tj)
        assert group.reflection(group.conjugate_position(i, j)) == conj
        assert group.reflection_keys.index(conj) == group.conjugate_position(
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

DIHEDRAL_ORDERS = range(3, 13)


def _reflect(cartan, j, v):
    """Oracle: s_j(v) = v - <v, alpha_j^vee> alpha_j on a root-lattice
    vector v = (a_1..a_n, b_1..b_n), meaning sum (a_i + b_i phi) alpha_i."""
    n = len(cartan)
    ka = sum(v[i] * cartan[i][j][0] + v[n + i] * cartan[i][j][1]
             for i in range(n))
    kb = sum(v[i] * cartan[i][j][1] + v[n + i] * sum(cartan[i][j])
             for i in range(n))
    out = list(v)
    out[j] -= ka
    out[n + j] -= kb
    return tuple(out)


def _mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col))
                       for col in zip(*b)) for row in a)


def _mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def _simple_root_matrices(name):
    """Oracle: every element paired with its matrix in the reflection
    representation on the root lattice, in the basis alpha_i, phi alpha_i
    (2n integer columns, the phi half zero outside H), by a BFS that
    multiplies group keys and matrices side by side."""
    group = group_for(name)
    rs = RootSystem(group.ctype)
    size = 2 * group.rank
    basis = [tuple(int(i == k) for k in range(size)) for i in range(size)]
    gens = [(group.reflection(pos),
             tuple(zip(*(_reflect(rs.cartan, j, e) for e in basis))))
            for j, pos in enumerate(rs.simple_positions)]
    identity = tuple(basis)
    matrix_of = {group.identity: identity}
    frontier = list(matrix_of)
    while frontier:
        new = []
        for w in frontier:
            for key, mat in gens:
                img = group.multiply(w, key)
                if img not in matrix_of:
                    matrix_of[img] = _mat_mul(matrix_of[w], mat)
                    new.append(img)
        frontier = new
    return group, rs, matrix_of, identity


@pytest.mark.parametrize("name", DIAGRAM_TYPES)
def test_keys_multiply_like_ambient_matrices(name):
    group, rs, matrix_of, identity = _simple_root_matrices(name)
    assert len(matrix_of) == group.ctype.group_order
    assert len(set(matrix_of.values())) == len(matrix_of)
    positive = rs.roots[:group.num_reflections]
    roots = positive + tuple(tuple(-x for x in r) for r in positive)
    # keys are the permutations the matrices induce on the 2N roots
    where = {r: j for j, r in enumerate(roots)}
    for w, mat in matrix_of.items():
        assert w == tuple(where[_mat_vec(mat, r)] for r in roots)
    for k, root in enumerate(positive):
        mat = matrix_of[group.reflection(k)]
        assert _mat_vec(mat, root) == roots[k + group.num_reflections]
        assert _mat_mul(mat, mat) == identity
    keys = list(matrix_of)
    rng = random.Random(5)
    for _ in range(300):
        a, b = rng.choice(keys), rng.choice(keys)
        assert matrix_of[group.multiply(a, b)] == _mat_mul(matrix_of[a],
                                                           matrix_of[b])
        assert _mat_mul(matrix_of[group.inverse(a)], matrix_of[a]) == identity


@pytest.mark.parametrize("name", DIAGRAM_TYPES)
def test_length_is_the_field_rank_of_m_minus_identity(name):
    """Over the 2n columns alpha_i, phi alpha_i the rank of M - I over Q
    is twice the codimension: [Q(phi) : Q] = 2 for H, and elsewhere the
    phi half is a second copy of the first."""
    assert _field_rank([[1, 2], [2, 4]]) == 1
    group, _, matrix_of, identity = _simple_root_matrices(name)
    for w, mat in matrix_of.items():
        diff = [[x - y for x, y in zip(row, idrow)]
                for row, idrow in zip(mat, identity)]
        assert 2 * group.reflection_length(w) == _field_rank(diff)


FRACTIONAL_TRACE_SCRIPT = """
import sys
from ncphom import CoxeterGroup
from ncphom.rootsys import RootSystem
print("optimize", sys.flags.optimize)
group = CoxeterGroup.from_name("A2")
roots = RootSystem(group.ctype).roots
where = {r: j for j, r in enumerate(roots)}
elements = set(group.enumerate_elements())

def negate(r):
    return tuple(-x for x in r)

def permutation(images):
    perm = list(range(len(roots)))
    for r, image in images.items():
        perm[where[r]] = where[image]
        perm[where[negate(r)]] = where[negate(image)]
    return tuple(perm)

a1, a2, a12 = (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)
rotation = permutation({a1: a2, a2: negate(a12), negate(a12): a1})
print("rotation", rotation in elements, group.reflection_length(rotation))
cycle = permutation({a1: a2, a2: a12, a12: a1})
print("cycle", cycle in elements)
try:
    group.reflection_length(cycle)
except RuntimeError as err:
    print("RuntimeError", err)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_length_refuses_a_fractional_mean_trace(flags):
    """Cycling A2's positive roots alpha_1 -> alpha_2 -> alpha_1 + alpha_2,
    and their negatives likewise, is no group element: its mean trace is
    4/3, and ``reflection_length`` raises RuntimeError, with and without
    ``python -O``.  The rotation alpha_1 -> alpha_2 -> -alpha_1 - alpha_2
    has mean trace 0 and length 2."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, *flags, "-c",
                           FRACTIONAL_TRACE_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"optimize {len(flags)}",
        "rotation True 2",
        "cycle False",
        "RuntimeError A2: mean trace 4/3 is not an integer; the "
        "permutation is not a group element",
    ]


@pytest.mark.parametrize("name", DIAGRAM_TYPES + ("H4", "E6"))
def test_reflection_k_swaps_its_root_and_its_negative(name):
    group = CoxeterGroup.from_name(name)
    total = group.num_reflections
    assert len(group.identity) == 2 * total
    for k, t in enumerate(group.reflection_keys):
        assert t[k] == k + total and t[k + total] == k
        assert group.multiply(t, t) == group.identity
        assert group.reflection_length(t) == 1


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
