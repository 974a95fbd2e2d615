"""Type parsing, root systems, and the fixed reflection order."""

import random
import re
from math import factorial

import pytest

from ncphom import rootsys
from ncphom.rootsys import CoxeterType, RootSystem, TypeParseError
from ncphom.values import DEGREES
from test_coxgroup import _mat_mul, _simple_root_matrices


def test_parse_accepts_every_admissible_family():
    for name, family, rank in (("A1", "A", 1), ("A9", "A", 9),
                               ("B2", "B", 2), ("D3", "D", 3),
                               ("E6", "E", 6), ("E8", "E", 8),
                               ("F4", "F", 4), ("H3", "H", 3),
                               ("H4", "H", 4)):
        ct = CoxeterType.parse(name)
        assert (ct.family, ct.rank) == (family, rank)
        assert ct.name == name
    ct = CoxeterType.parse("I2(7)")
    assert ct.is_dihedral and ct.dihedral_order == 7
    assert CoxeterType.parse("  A3 ").name == "A3"


@pytest.mark.parametrize("bad", ["A0", "B1", "D2", "E5", "E9", "F3", "F5",
                                 "H2", "H5", "I2(2)", "I2(1)", "G2", "X4",
                                 "A", "3", "", "A3 B2"])
def test_parse_rejects_inadmissible_names(bad):
    with pytest.raises(TypeParseError):
        CoxeterType.parse(bad)


@pytest.mark.parametrize("bad", ["A0", "B1", "D2", "E5", "E9", "F3", "F5",
                                 "H2", "H5", "I2(0)", "I2(1)", "I2(2)"])
def test_rank_rejections_keep_their_message(bad):
    extra = {"D2": " (D2 is reducible)",
             "I2(2)": " (I2(2) is reducible)"}.get(bad, "")
    if bad.startswith("I2"):
        message = f"{bad} is not supported: need m >= 3{extra}"
    else:
        message = f"{bad} is not a supported irreducible type{extra}"
    with pytest.raises(TypeParseError) as err:
        CoxeterType.parse(bad)
    assert str(err.value) == message


def _regex_parse(text):
    """``CoxeterType.parse`` as it was written with regular expressions,
    kept as the reference grammar for the parser built on string
    methods.  ``\\d`` matches every Unicode decimal digit."""
    text = text.strip()
    m = re.fullmatch(r"I2\((\d+)\)", text)
    if m:
        order = int(m.group(1))
        if order < 3:
            extra = " (I2(2) is reducible)" if order == 2 else ""
            raise TypeParseError(
                f"I2({order}) is not supported: need m >= 3{extra}")
        return CoxeterType("I", 2, order)
    m = re.fullmatch(r"([ABDEFH])(\d+)", text)
    if not m:
        raise TypeParseError(
            f"cannot parse Coxeter type {text!r}; expected one of "
            "A<n>, B<n>, D<n>, E6|E7|E8, F4, H3|H4, I2(m)")
    family, rank = m.group(1), int(m.group(2))
    if (rank < {"B": 2, "D": 3}.get(family, 1)
            or family in "EFH" and DEGREES[family](rank) is None):
        extra = ""
        if family == "D" and rank == 2:
            extra = " (D2 is reducible)"
        raise TypeParseError(
            f"{family}{rank} is not a supported irreducible type{extra}")
    return CoxeterType(family, rank)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as err:
        return type(err), str(err)


PARSE_CORPUS = [
    "A1", "A3", "A03", "A000", "B2", "D3", "D2", "E6", "E06", "E9", "F4",
    "H3", "H4", "H5", "I2(5)", "I2(05)", "I2(0)", "I2(2)", "I2(3)",
    " A3", "A3 ", "\tB4\n", " I2(7) ", "\xa0D4\u2003",
    "A٣", "I2(٧)", "E６", "A²", "I2(³)",
    "AⅣ", "I2()", "I2(5", "I25)", "I2)5(", "I2(5))", "I2((5)",
    "I2 (5)", "I2( 5)", "", " ", "A", "3", "I", "I2", "a3", "b2", "i2(5)",
    "e8", "A 3", "A3 B2", "A-3", "A+3", "A3.0", "A1_0", "A3\n\n", "AA3",
    "G2", "X4", "Z^3",
]


@pytest.mark.parametrize("text", PARSE_CORPUS)
def test_parse_follows_the_regular_expression_grammar(text):
    assert (_outcome(CoxeterType.parse, text)
            == _outcome(_regex_parse, text))


def test_parse_reads_decimal_digits_only():
    """``\\d`` and ``str.isdecimal`` accept Unicode decimal digits, which
    ``int`` reads; a superscript is a digit but not a decimal, and stays
    a TypeParseError instead of reaching ``int``."""
    assert CoxeterType.parse("A٣") == CoxeterType("A", 3)
    assert CoxeterType.parse("I2(05)") == CoxeterType("I", 2, 5)
    assert CoxeterType.parse("A03").name == "A3"
    for bad in ("A²", "I2(³)", "I2()", "I2(5", "", "a3"):
        with pytest.raises(TypeParseError) as err:
            CoxeterType.parse(bad)
        assert str(err.value) == (
            f"cannot parse Coxeter type {bad!r}; expected one of "
            "A<n>, B<n>, D<n>, E6|E7|E8, F4, H3|H4, I2(m)")


def test_reducible_rejections_explain_themselves():
    with pytest.raises(TypeParseError, match="reducible"):
        CoxeterType.parse("D2")
    with pytest.raises(TypeParseError, match="reducible"):
        CoxeterType.parse("I2(2)")


PINNED_NUMEROLOGY = [
    ("A1", 1, 2, 2), ("A2", 3, 6, 3), ("A3", 6, 24, 4), ("A4", 10, 120, 5),
    ("B2", 4, 8, 4), ("B3", 9, 48, 6), ("B4", 16, 384, 8),
    ("D3", 6, 24, 4), ("D4", 12, 192, 6), ("D5", 20, 1920, 8),
    ("E6", 36, 51840, 12), ("E7", 63, 2903040, 18),
    ("E8", 120, 696729600, 30),
    ("F4", 24, 1152, 12), ("H3", 15, 120, 10), ("H4", 60, 14400, 30),
    ("I2(3)", 3, 6, 3), ("I2(7)", 7, 14, 7), ("I2(12)", 12, 24, 12),
]


def _family_numerology(name):
    """(N, |W|, h) from the classical formulas: |W| = (n+1)!, 2^n n! and
    2^(n-1) n!, h = n+1, 2n and 2n-2; I2(m) has |W| = 2m and h = N = m."""
    if name.startswith("I2("):
        m = int(name[3:-1])
        return m, 2 * m, m
    family, n = name[0], int(name[1:])
    order, h = {"A": (factorial(n + 1), n + 1),
                "B": (2 ** n * factorial(n), 2 * n),
                "D": (2 ** (n - 1) * factorial(n), 2 * n - 2)}[family]
    return n * h // 2, order, h


FAMILY_NAMES = ([f"A{n}" for n in range(5, 9)]
                + [f"B{n}" for n in range(5, 9)]
                + [f"D{n}" for n in range(6, 9)]
                + [f"I2({m})" for m in range(3, 31)])  # pinned ones skipped


@pytest.mark.parametrize(
    "name,reflections,order,coxnum",
    PINNED_NUMEROLOGY + [(name, *_family_numerology(name))
                         for name in FAMILY_NAMES
                         if name not in {row[0] for row in PINNED_NUMEROLOGY}])
def test_numerology(name, reflections, order, coxnum):
    ct = CoxeterType.parse(name)
    assert ct.num_reflections == reflections
    assert ct.group_order == order
    assert ct.coxeter_number == coxnum


@pytest.mark.parametrize("name,degrees", [
    ("A3", (2, 3, 4)), ("B3", (2, 4, 6)), ("D4", (2, 4, 4, 6)),
    ("D5", (2, 4, 5, 6, 8)), ("E6", (2, 5, 6, 8, 9, 12)),
    ("F4", (2, 6, 8, 12)), ("H3", (2, 6, 10)), ("I2(7)", (2, 7)),
])
def test_degrees_are_ascending(name, degrees):
    assert CoxeterType.parse(name).degrees == degrees


def test_a3_reflection_order_is_pinned():
    """The root recurrence order everything downstream depends on, in
    simple-root coordinates (A3 has no golden half)."""
    rs = RootSystem(CoxeterType.parse("A3"))
    assert [r[:3] for r in rs.roots[:6]] == [
        (1, 0, 0),
        (0, 0, 1),
        (1, 1, 1),
        (0, 1, 1),
        (1, 1, 0),
        (0, 1, 0),
    ]
    assert not any(any(r[3:]) for r in rs.roots[:6])
    assert rs.color_classes == ((0, 2), (1,))


def _compose(a, b):
    return tuple(a[j] for j in b)


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "F4", "H3"])
def test_root_system_consistency(name):
    ct = CoxeterType.parse(name)
    rs = RootSystem(ct)
    total = ct.num_reflections
    assert len(rs.roots) == 2 * total
    assert len(set(rs.roots[:total])) == total
    identity = tuple(range(2 * total))
    gamma = identity
    for cls in rs.color_classes:
        for i in cls:
            gamma = _compose(gamma, rs.simple_permutations[i])
    order, power = 1, gamma
    while power != identity:
        order, power = order + 1, _compose(power, gamma)
    assert order == ct.coxeter_number
    for perm, pos in zip(rs.simple_permutations, rs.simple_positions):
        assert _compose(perm, perm) == identity
        assert perm[pos] == pos + total
    assert all(len(root) == 2 * ct.rank for root in rs.roots)


@pytest.mark.parametrize("name", ["A3", "B3", "H3"])
def test_conjugate_position_matches_matrix_conjugation(name):
    group, _, matrix_of, _ = _simple_root_matrices(name)
    reflections = [matrix_of[t] for t in group.reflection_keys]
    rng = random.Random(3)
    n = len(reflections)
    for _ in range(40):
        i, j = rng.randrange(n), rng.randrange(n)
        mi, mj = reflections[i], reflections[j]
        conj = _mat_mul(_mat_mul(mj, mi), mj)
        assert reflections[group.conjugate_position(i, j)] == conj


def test_bipartite_classes_are_orthogonal():
    for name in ("A4", "B3", "E6", "H3"):
        rs = RootSystem(CoxeterType.parse(name))
        for cls in rs.color_classes:
            for i in cls:
                for j in cls:
                    if i != j:
                        assert rs.cartan[i][j] == (0, 0)


def _reflect(rs, j, root):
    """Oracle: s_j in simple-root coordinates over Z (no golden half)."""
    pairing = sum(c * rs.cartan[i][j][0] for i, c in enumerate(root))
    return tuple(c - pairing * (i == j) for i, c in enumerate(root))


def test_gamma_rotates_the_root_recurrence():
    for name in ("B3", "D5", "F4", "E6"):
        rs = RootSystem(CoxeterType.parse(name))
        n = rs.ctype.rank
        first, second = rs.color_classes
        roots = [r[:n] for r in rs.roots[:rs.ctype.num_reflections]]
        for k in range(n, len(roots)):
            image = roots[k - n]
            for j in second + first:
                image = _reflect(rs, j, image)
            assert roots[k] == image, (name, k)


# Bourbaki, Lie Groups and Lie Algebras, Ch. VI, Plates II-VIII: the
# highest root in simple-root coordinates pins the node numbering.
HIGHEST_ROOTS = {
    "A4": (1, 1, 1, 1), "B4": (1, 2, 2, 2), "D5": (1, 2, 2, 1, 1),
    "E6": (1, 2, 2, 3, 2, 1), "E7": (2, 2, 3, 4, 3, 2, 1),
    "E8": (2, 3, 4, 6, 5, 4, 3, 2), "F4": (2, 3, 4, 2),
}


@pytest.mark.parametrize("name", sorted(HIGHEST_ROOTS))
def test_highest_root_follows_bourbaki_numbering(name):
    rs = RootSystem(CoxeterType.parse(name))
    n = rs.ctype.rank
    positive = rs.roots[:rs.ctype.num_reflections]
    assert max((r[:n] for r in positive), key=sum) == HIGHEST_ROOTS[name]


@pytest.mark.parametrize("name,bonds", [
    ("A3", [(0, 1, 3), (1, 2, 3), (0, 2, 3)]),  # a triangle: affine A2
    ("H3", [(0, 1, 5), (1, 2, 4)]),             # infinite hyperbolic
    ("A3", [(0, 1, 3), (1, 2, 4)]),             # finite, but B3 not A3
])
def test_wrong_diagram_raises_instead_of_hanging(monkeypatch, name, bonds):
    monkeypatch.setattr(rootsys, "_diagram", lambda ct: bonds)
    with pytest.raises(RuntimeError, match="roots"):
        RootSystem(CoxeterType.parse(name))


def test_dihedral_types_have_no_matrix_realization_here():
    with pytest.raises(ValueError):
        RootSystem(CoxeterType.parse("I2(5)"))
