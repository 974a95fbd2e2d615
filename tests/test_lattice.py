"""The noncrossing partition lattice: sizes, order, factorizations,
chains, and Moebius values."""

import hashlib
import os
import subprocess
import sys
import textwrap
from itertools import product
from math import prod
from pathlib import Path

import pytest

from conftest import lattice_for
from ncphom import CoxeterGroup, PartitionLattice
from ncphom.rootsys import CoxeterType

EXPECTED_SIZES = {
    "A1": 2, "A2": 5, "A3": 14, "A4": 42, "A5": 132,
    "B2": 6, "B3": 20, "B4": 70, "B5": 252,
    "D3": 14, "D4": 50, "D5": 182,
    "E6": 833, "E7": 4160, "F4": 105, "H3": 32, "H4": 280,
    "I2(3)": 5, "I2(4)": 6, "I2(7)": 9, "I2(12)": 14,
}


@pytest.mark.parametrize("name,size", sorted(EXPECTED_SIZES.items()))
def test_lattice_sizes(name, size):
    assert lattice_for(name).size == size


@pytest.mark.parametrize("name", sorted(EXPECTED_SIZES))
def test_lattice_sizes_are_catalan_numbers_of_the_degrees(name):
    degrees = CoxeterType.parse(name).degrees
    h = max(degrees)
    catalan, remainder = divmod(prod(h + d for d in degrees), prod(degrees))
    assert remainder == 0
    assert lattice_for(name).size == catalan


def test_rank_rows_of_a3():
    lat = lattice_for("A3")
    assert [len(lat.by_rank[k]) for k in range(4)] == [1, 6, 6, 1]
    assert lat.rank[lat.identity_id] == 0
    assert lat.rank[lat.gamma_id] == 3


def test_leq_is_the_absolute_order():
    lat = lattice_for("B3")
    group = lat.group
    for uid in range(lat.size):
        for vid in range(lat.size):
            expected = group.absolute_leq(lat.keys[uid], lat.keys[vid])
            assert lat.leq(uid, vid) == expected


def test_cover_labels_multiply_up():
    lat = lattice_for("A3")
    group = lat.group
    for vid in range(lat.size):
        for tpos, uid in lat.lower_covers[vid]:
            assert lat.rank[uid] == lat.rank[vid] - 1
            assert group.multiply(lat.keys[uid],
                                  group.reflection(tpos)) == lat.keys[vid]


def test_atoms_below_are_the_first_letters():
    lat = lattice_for("B3")
    for vid in range(lat.size):
        firsts = sorted({seq[0] for seq in lat.reduced_factorizations(vid)
                         if seq})
        assert lat.atoms_below(vid) == firsts


@pytest.mark.parametrize("name", ["A5", "B3", "B5", "D4", "D5", "E6", "F4",
                                  "H3", "H4", "I2(8)"])
def test_atoms_below_match_the_absolute_order(name):
    """Atoms below v, read from the group's absolute order rather than
    from the lattice's cover graph."""
    lat = lattice_for(name)
    group = lat.group
    for vid, key in enumerate(lat.keys):
        assert lat.atoms_below(vid) == [
            t for t in range(group.num_reflections)
            if group.absolute_leq(group.reflection(t), key)]


def test_closure_tries_only_the_reflections_below_every_upper_cover():
    """F4 has 24 reflections and 105 lattice elements: trying every
    reflection at every element takes 2520 products, the candidate rule
    756."""
    group = CoxeterGroup.from_name("F4")
    multiply = group.multiply
    calls = []

    def counted(a, b):
        calls.append(b)
        return multiply(a, b)

    group.multiply = counted
    assert PartitionLattice(group).size == 105
    assert len(calls) <= 756


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "H3"])
def test_factorizations_match_a_brute_force_grouping(name):
    """Every reflection sequence of length rank(v), grouped by its
    product: no cover edge of the lattice is consulted."""
    lat = lattice_for(name)
    group = lat.group
    for k in range(lat.n + 1):
        by_product = {}
        for seq in product(range(group.num_reflections), repeat=k):
            by_product.setdefault(group.sequence_product(seq),
                                  []).append(seq)
        for vid in lat.by_rank[k]:
            rex = tuple(sorted(by_product[lat.keys[vid]]))
            assert lat.reduced_factorizations(vid) == rex
            assert lat.decreasing_factorizations(vid) == tuple(
                seq for seq in rex
                if all(a > b for a, b in zip(seq, seq[1:])))


def test_reduced_factorization_counts_on_a3():
    lat = lattice_for("A3")
    by_rank = {}
    for vid in range(lat.size):
        k = lat.rank[vid]
        by_rank.setdefault(k, []).append(len(lat.reduced_factorizations(vid)))
    assert by_rank[0] == [1]
    assert by_rank[1] == [1] * 6
    # four 3-cycles with three factorizations, two disjoint pairs with two
    assert sorted(by_rank[2]) == [2, 2, 3, 3, 3, 3]
    assert by_rank[3] == [16]


def test_factorizations_multiply_to_their_element_and_are_lex_sorted():
    lat = lattice_for("B3")
    group = lat.group
    for vid in range(lat.size):
        rex = lat.reduced_factorizations(vid)
        assert list(rex) == sorted(rex)
        for seq in rex:
            assert group.sequence_product(seq) == lat.keys[vid]
            assert len(seq) == lat.rank[vid]
        dec = lat.decreasing_factorizations(vid)
        assert set(dec) <= set(rex)
        for seq in dec:
            assert all(a > b for a, b in zip(seq, seq[1:]))


def test_pinned_a3_bases():
    lat = lattice_for("A3")
    assert lat.increasing_chain(lat.identity_id, lat.gamma_id) == (0, 1, 5)
    assert lat.rank_prefix_basis(1) == (
        (1, 0), (2, 0), (3, 1), (4, 0), (5, 3))
    assert lat.rank_prefix_basis(2) == (
        (2, 1, 0), (3, 2, 1), (4, 2, 0), (4, 3, 2), (5, 4, 3))
    gamma_dec = lat.decreasing_factorizations(lat.gamma_id)
    assert gamma_dec == (
        (2, 1, 0), (3, 2, 1), (4, 2, 0), (4, 3, 2), (5, 4, 3))


def test_increasing_chain_is_a_chain_with_ascending_labels():
    lat = lattice_for("B3")
    group = lat.group
    for vid in range(lat.size):
        for uid in lat.interval_ids(lat.identity_id, vid):
            chain = lat.increasing_chain(uid, vid)
            assert len(chain) == lat.rank[vid] - lat.rank[uid]
            assert all(a < b for a, b in zip(chain, chain[1:]))
            walked = lat.keys[uid]
            for tpos in chain:
                walked = group.multiply(walked, group.reflection(tpos))
            assert walked == lat.keys[vid]


@pytest.mark.parametrize("name,top_mobius", [
    ("A2", 2), ("A3", -5), ("B2", 3), ("B3", -10),
    ("H3", -21), ("I2(7)", 6),
])
def test_top_mobius_values(name, top_mobius):
    lat = lattice_for(name)
    assert lat.mobius(lat.gamma_id) == top_mobius


def test_mobius_recursion_sums_to_zero():
    lat = lattice_for("B3")
    for vid in range(lat.size):
        if vid == lat.identity_id:
            assert lat.mobius(vid) == 1
            continue
        total = sum(lat.mobius(uid)
                    for uid in lat.interval_ids(lat.identity_id, vid))
        assert total == 0


def test_mobius_counts_decreasing_factorizations():
    for name in ("A3", "B3", "I2(6)"):
        lat = lattice_for(name)
        for vid in range(lat.size):
            sign = -1 if lat.rank[vid] % 2 else 1
            assert len(lat.decreasing_factorizations(vid)) == (
                sign * lat.mobius(vid))


# SHA-256 of the repr of (name, keys, rank, by_rank, lower_covers,
# upper_covers): every lattice id, which ``--dump-lattice`` prints.
LATTICE_ID_DIGESTS = {
    "A3": "804218da75cbe96d0ad7ea3b05ec654b5c2ab99806be74ca4b9ccb9f2bc19ff8",
    "B4": "8ed1f7b6ba09e881d3eb30ca87b70a70be3bcd2dd1f79036ec978aae96530b61",
    "D4": "ac368051fc6f43df0f6014cee4137a8e66895e376e355d13a449fb364adb7f96",
    "F4": "539cb4687525b89cd908c6e42bf37623ed4ce94c1808ad677a4d2b80c3bf360d",
    "H3": "c109e887212fb9fe0e2e11eb49ad8f543cd9bfa4e8504dd2d412d7df4c29e764",
    "H4": "f3f086a25e3e89354f4d4edcbe2b4cbd979bb6851acf695c52a4cf56d581ee9b",
    "I2(7)":
        "41e1aef4e191f287a932d9c404cdabc2e5e614eb04130855e333dc699d8ee335",
    "E6": "8c2713122297ecbfe9d4fc29d90365fab63c106b89d318902a0fe9464fac22e3",
}


@pytest.mark.parametrize("name", sorted(LATTICE_ID_DIGESTS))
def test_lattice_ids_match_pinned_digest(name):
    lat = lattice_for(name)
    payload = (name, lat.keys, lat.rank, lat.by_rank, lat.lower_covers,
               lat.upper_covers)
    assert hashlib.sha256(repr(payload).encode()).hexdigest() == \
        LATTICE_ID_DIGESTS[name]


def test_interval_ids_are_sorted_by_rank():
    lat = lattice_for("A3")
    ids = lat.interval_ids(lat.identity_id, lat.gamma_id)
    assert ids == sorted(ids, key=lambda i: (lat.rank[i], i))
    assert len(ids) == lat.size
    atom = lat.by_rank[1][0]
    sub = lat.interval_ids(atom, lat.gamma_id)
    assert all(lat.leq(atom, i) for i in sub)


FLOOR_TYPES = ("A4", "B4", "D4", "F4", "H3", "H4", "I2(7)")


@pytest.mark.parametrize("name", FLOOR_TYPES)
def test_decreasing_factorizations_filter_the_reduced_ones(name):
    """For floor -1 and every reflection position, the decreasing
    factorizations above the floor are the strictly decreasing reduced
    factorizations whose last entry exceeds it, in the same order."""
    lat = lattice_for(name)
    floors = range(-1, lat.group.num_reflections)
    for vid in range(lat.size):
        dec = [seq for seq in lat.reduced_factorizations(vid)
               if all(a > b for a, b in zip(seq, seq[1:]))]
        for floor in floors:
            assert lat.decreasing_factorizations(vid, floor) == tuple(
                seq for seq in dec if not seq or seq[-1] > floor)


@pytest.mark.parametrize("name", FLOOR_TYPES)
def test_rank_prefix_basis_matches_the_filter(name):
    """Each rank-k basis label is a strictly decreasing reduced
    factorization of a rank-k element whose last entry exceeds the first
    label of its increasing chain to gamma, extended by that label."""
    lat = lattice_for(name)
    for k in range(lat.n):
        seqs = []
        for wid in lat.by_rank[k]:
            first = lat.increasing_chain(wid, lat.gamma_id)[0]
            for seq in lat.reduced_factorizations(wid):
                label = seq + (first,)
                if all(a > b for a, b in zip(label, label[1:])):
                    seqs.append(label)
        assert lat.rank_prefix_basis(k) == tuple(sorted(seqs))


@pytest.mark.parametrize("name", FLOOR_TYPES)
def test_interval_ids_list_the_interval_by_rank_then_id(name):
    lat = lattice_for(name)
    for uid in range(lat.size):
        for vid in range(lat.size):
            if not lat.leq(uid, vid):
                continue
            expected = sorted((w for w in range(lat.size)
                               if lat.leq(uid, w) and lat.leq(w, vid)),
                              key=lambda w: (lat.rank[w], w))
            assert lat.interval_ids(uid, vid) == expected


def test_lattice_index_holds_the_interval():
    lat = lattice_for("A3")
    group = lat.group
    assert lat.index[group.identity] == lat.identity_id
    assert lat.index[group.sequence_product((0, 1, 5))] == lat.gamma_id
    assert group.gamma in lat.index
    # a crossing pair: rank 2 in the group but outside the interval
    crossing = group.sequence_product((2, 5))
    assert group.reflection_length(crossing) == 2
    assert crossing not in lat.index


def test_lattice_checks_raise_under_optimize():
    """The lattice's answer checks are explicit raises, so ``python -O``
    keeps them: a group whose Coxeter element is patched to the wrong
    length, and a lattice whose greedy chains are patched to decrease."""
    script = textwrap.dedent("""\
        import sys
        from ncphom import CoxeterGroup, PartitionLattice
        print("optimize", sys.flags.optimize)
        group = CoxeterGroup.from_name("A3")
        length = group.reflection_length
        group.reflection_length = lambda w: length(w) + (w == group.gamma)
        try:
            PartitionLattice(group)
        except RuntimeError as err:
            print("raised:", err)
        lat = PartitionLattice(CoxeterGroup.from_name("A3"))
        lat.increasing_chain = lambda uid, vid: (2, 1)
        try:
            lat.rank_prefix_basis(1)
        except RuntimeError as err:
            print("raised:", err)
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "optimize 1",
        "raised: the Coxeter element must have full reflection length",
        "raised: greedy completion must be increasing",
    ]
