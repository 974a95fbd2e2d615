"""What callers use of the package's value and container classes:
equality, hashing, immutability, reprs, defaults, and fresh mutable
defaults per instance."""

import pickle

import pytest

import ncphom.homology
import ncphom.rootsys
import ncphom.values
from conftest import algebra_for
from ncphom import (BoundaryMatrix, ChainComplex, CoxeterType, HomologyGroup,
                    ReferenceRow)


def _row(status=None):
    groups = (HomologyGroup(1), HomologyGroup(2))
    args = ("A2", "FP", groups, -1, "test")
    return ReferenceRow(*args) if status is None \
        else ReferenceRow(*args, status)


EQUAL_PAIRS = [
    (CoxeterType.parse("A3"), CoxeterType("A", 3)),
    (CoxeterType.parse("I2(7)"), CoxeterType("I", 2, 7)),
    (HomologyGroup(1, (2,)), HomologyGroup(free_rank=1, torsion=(2,))),
    (HomologyGroup(3), HomologyGroup(3, ())),
    (_row(), _row("ok")),
]

UNEQUAL_PAIRS = [
    (CoxeterType("A", 3), CoxeterType("B", 3)),
    (CoxeterType("I", 2, 7), CoxeterType("I", 2, 8)),
    (HomologyGroup(1, (2,)), HomologyGroup(1, (4,))),
    (HomologyGroup(1), HomologyGroup(2)),
    (_row(), _row("inconsistent")),
]


@pytest.mark.parametrize("a,b", EQUAL_PAIRS)
def test_equal_values_are_equal_and_hash_alike(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("a,b", UNEQUAL_PAIRS)
def test_different_values_are_unequal(a, b):
    assert a != b and not a == b
    assert len({a, b}) == 2


@pytest.mark.parametrize("value", [pair[0] for pair in EQUAL_PAIRS])
def test_values_survive_pickling(value):
    assert pickle.loads(pickle.dumps(value)) == value


def test_old_module_names_are_the_value_types():
    assert ncphom.rootsys.CoxeterType is ncphom.values.CoxeterType
    assert ncphom.rootsys.TypeParseError is ncphom.values.TypeParseError
    assert ncphom.rootsys.DEGREES is ncphom.values.DEGREES
    assert ncphom.homology.HomologyGroup is ncphom.values.HomologyGroup


# Pickles written before the value types moved to ``ncphom.values``; they
# name the classes by their old modules.
OLD_PICKLES = [
    (b"\x80\x04\x95/\x00\x00\x00\x00\x00\x00\x00\x8c\x0fncphom.homology"
     b"\x94\x8c\rHomologyGroup\x94\x93\x94K\x01K\x02\x85\x94\x86\x94\x81\x94.",
     HomologyGroup(1, (2,))),
    (b"\x80\x04\x95.\x00\x00\x00\x00\x00\x00\x00\x8c\x0encphom.rootsys"
     b"\x94\x8c\x0bCoxeterType\x94\x93\x94\x8c\x01A\x94K\x03K\x00\x87\x94"
     b"\x81\x94.",
     CoxeterType.parse("A3")),
]


@pytest.mark.parametrize("data,value", OLD_PICKLES,
                         ids=["HomologyGroup", "CoxeterType"])
def test_old_pickles_still_load(data, value):
    loaded = pickle.loads(data)
    assert type(loaded) is type(value)
    assert loaded == value


def _graded_basis():
    return algebra_for("A2").full_basis(1)


@pytest.mark.parametrize("make,fields", [
    (lambda: CoxeterType.parse("B3"), ("family", "rank", "dihedral_order")),
    (lambda: HomologyGroup(1, (2,)), ("free_rank", "torsion")),
    (_row, ("type_name", "space", "groups", "euler", "source", "status")),
    (_graded_basis, ("degree", "labels", "expansions", "max_key_to_pos",
                     "leading")),
])
def test_values_refuse_assignment(make, fields):
    value = make()
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_reprs_name_every_field():
    assert repr(HomologyGroup(1, (2,))) == \
        "HomologyGroup(free_rank=1, torsion=(2,))"
    assert repr(CoxeterType.parse("A3")) == \
        "CoxeterType(family='A', rank=3, dihedral_order=0)"


def test_torsion_given_as_a_list_is_stored_as_a_tuple():
    group = HomologyGroup(0, [2])
    assert group == HomologyGroup(0, (2,))
    assert hash(group) == hash(HomologyGroup(0, (2,)))
    assert repr(group) == "HomologyGroup(free_rank=0, torsion=(2,))"


def test_defaults():
    assert HomologyGroup(3).torsion == ()
    assert _row().status == "ok"
    assert CoxeterType("A", 3).dihedral_order == 0


@pytest.mark.parametrize("bad", [
    lambda: HomologyGroup(free_rank=-1),
    lambda: HomologyGroup(0, torsion=(1,)),
    lambda: HomologyGroup(2, (4, 6)),
])
def test_keyword_construction_is_checked(bad):
    with pytest.raises(ValueError):
        bad()


def test_boundary_matrices_do_not_share_entries():
    a, b = BoundaryMatrix(2, 2), BoundaryMatrix(2, 2)
    a.entries[(0, 0)] = 1
    assert b.entries == {}
    assert (a.rows, a.cols) == (b.rows, b.cols) == (2, 2)
    given = {(1, 0): -1}
    assert BoundaryMatrix(2, 2, given).entries is given


def test_chain_complexes_do_not_share_labels():
    make = lambda: ChainComplex("X", [0, 1], {0: 1, 1: 1},  # noqa: E731
                                {1: BoundaryMatrix(1, 1)})
    a, b = make(), make()
    a.labels[0] = ["x"]
    assert b.labels == {}
    labels = {0: [()]}
    cx = ChainComplex("Y", [0], {0: 1}, {}, labels)
    assert cx.labels is labels
    assert (cx.name, cx.degrees, cx.dims, cx.matrices) == ("Y", [0], {0: 1},
                                                           {})
