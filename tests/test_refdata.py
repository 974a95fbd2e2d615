"""Bundled reference tables: decoding, consistency, lookup."""

import pytest

from ncphom import HomologyGroup, all_rows, load_rows, lookup
from ncphom.rootsys import CoxeterType


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


def test_lookup_known_rows():
    a3 = lookup("A3", "FP")
    assert [g.free_rank for g in a3.groups] == [1, 2, 2]
    assert all(not g.torsion for g in a3.groups)
    h4 = lookup("H4", "FP")
    assert [str(g) for g in h4.groups] == ["Z", "0", "Z_2", "Z^43"]
    assert lookup("E8", "FP") is not None
    assert lookup("Z9", "FP") is None
    assert lookup("A3", "MW") is None


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
    # incomplete base rows must not double
    assert lookup("A6", "FQ") is None


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
