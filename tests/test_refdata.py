"""Bundled reference tables: decoding, consistency, lookup."""

from math import prod

import pytest

from ncphom import HomologyGroup, all_rows, load_rows, lookup
from ncphom.rootsys import CoxeterType, TypeParseError


def test_every_row_decodes_with_a_source():
    rows = load_rows()
    assert len(rows) >= 40
    for row in rows:
        assert row.space in ("FP", "FQ0")
        assert row.source.startswith("reference-tables/")
        assert row.status in ("ok", "incomplete", "inconsistent",
                              "unsupported")
        for g in row.groups:
            assert g is None or isinstance(g, HomologyGroup)


def test_complete_rows_satisfy_their_euler_characteristic():
    checked = 0
    for row in load_rows():
        if not row.complete:
            continue
        alternating = sum((-1) ** k * g.free_rank
                          for k, g in enumerate(row.groups))
        assert alternating == row.euler, row.type_name
        checked += 1
    assert checked >= 25


def test_flagged_rows_stay_flagged():
    """The D5 fibre row disagrees with its own Euler characteristic and
    must never be silently treated as verifiable."""
    d5 = lookup("D5", "FQ0")
    assert d5 is not None
    assert d5.status == "inconsistent"
    assert not d5.complete
    alternating = sum((-1) ** k * g.free_rank
                      for k, g in enumerate(d5.groups))
    assert alternating != d5.euler
    d2 = lookup("D2", "FQ0")
    assert d2 is not None
    assert d2.status == "unsupported"


def _euler_from_degrees(ctype, space):
    """chi(FQ0) = N prod_{i>=2} (1 - e_i), with e_i = d_i - 1 ascending and
    the one e = 1 dropped: FQ0 is an N-fold cyclic cover of the projective
    complement, whose Poincare polynomial is prod_{i>=2} (1 + e_i t)
    (Orlik-Solomon).  W acts freely on FQ, two copies of FQ0, with
    quotient FP, so chi(FP) = 2 chi(FQ0) / |W|."""
    exponents = [d - 1 for d in ctype.degrees]
    assert exponents[0] == 1
    fibre = ctype.num_reflections * prod(1 - e for e in exponents[1:])
    if space == "FQ0":
        return fibre
    quotient, remainder = divmod(2 * fibre, prod(ctype.degrees))
    assert remainder == 0, ctype.name
    return quotient


def test_stored_euler_characteristics_follow_from_the_degrees():
    checked = 0
    for row in load_rows():
        try:
            ctype = CoxeterType.parse(row.type_name)
        except TypeParseError:
            continue
        assert row.euler == _euler_from_degrees(ctype, row.space), (
            row.type_name, row.space)
        checked += 1
    assert checked == 42


def test_dihedral_euler_characteristics_follow_from_the_degrees():
    for m in range(3, 30):
        ctype = CoxeterType.parse(f"I2({m})")
        for space in ("FP", "FQ0"):
            assert (lookup(ctype.name, space).euler
                    == _euler_from_degrees(ctype, space)), (m, space)


def test_d5_fibre_row_has_a_wrong_group_not_a_wrong_euler():
    d5 = lookup("D5", "FQ0")
    alternating = sum((-1) ** k * g.free_rank
                      for k, g in enumerate(d5.groups))
    assert alternating == 2881
    assert d5.euler == 2880
    assert _euler_from_degrees(CoxeterType.parse("D5"), "FQ0") == 2880


def test_lookup_known_rows():
    a3 = lookup("A3", "FP")
    assert [g.free_rank for g in a3.groups] == [1, 2, 2]
    assert all(not g.torsion for g in a3.groups)
    h4 = lookup("H4", "FP")
    assert [str(g) for g in h4.groups] == ["Z", "0", "Z_2", "Z^43"]
    assert lookup("E8", "FP") is not None
    assert lookup("Z9", "FP") is None
    assert lookup("A3", "MW") is None


def test_dihedral_lookup_has_no_complement_row():
    assert lookup("I2(5)", "M") is None


def test_lookup_synthesizes_dihedral_rows():
    fp = lookup("I2(7)", "FP")
    assert [g.free_rank for g in fp.groups] == [1, 6]
    assert fp.euler == -5
    fq0 = lookup("I2(7)", "FQ0")
    assert [g.free_rank for g in fq0.groups] == [1, 36]
    assert fq0.euler == -35
    assert fp.source == "closed-form/dihedral"


def test_lookup_doubles_fibre_rows():
    half = lookup("A2", "FQ0")
    full = lookup("A2", "FQ")
    assert [g.free_rank for g in full.groups] == [
        2 * g.free_rank for g in half.groups]
    assert full.euler == 2 * half.euler
    assert full.space == "FQ"
    # incomplete base rows double too, gaps kept, and stay incomplete
    a6 = lookup("A6", "FQ")
    assert (a6.space, a6.status, a6.complete) == ("FQ", "ok", False)
    assert a6.groups[2:] == (None,) * 4


def test_doubling_duplicates_torsion():
    row = lookup("A5", "FP")
    doubled = row.doubled()
    for g, d in zip(row.groups, doubled.groups):
        assert d == g.doubled()
    assert doubled.source.endswith("#doubled")


def test_all_rows_filters():
    fp = all_rows(space="FP")
    assert all(r.space == "FP" for r in fp)
    low = all_rows(space="FP", max_rank=3)
    assert {r.type_name for r in low} == {"A1", "A2", "A3", "B2", "B3",
                                          "D3", "H3"}
    everything = all_rows()
    assert len(everything) == len(load_rows())


def test_lookup_propagates_errors_other_than_a_bad_type(monkeypatch):
    def parse(text):
        raise RuntimeError("parser fault")
    monkeypatch.setattr(CoxeterType, "parse", staticmethod(parse))
    with pytest.raises(RuntimeError, match="parser fault"):
        lookup("A3", "FP")
    with pytest.raises(RuntimeError, match="parser fault"):
        all_rows(space="FP", max_rank=3)


@pytest.mark.parametrize("name,space,frees", [
    ("F4", "FP", [1, 1, 5, 15]),
    ("H3", "FP", [1, 0, 7]),
    ("H3", "FQ0", [1, 14, 493]),
    ("B3", "FQ0", [1, 8, 79]),
    ("E6", "FP", [1, 0, 0, 0, 6, 14]),
])
def test_pinned_reference_values(name, space, frees):
    row = lookup(name, space)
    assert [g.free_rank for g in row.groups] == frees
