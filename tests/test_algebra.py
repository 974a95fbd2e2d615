"""Antisymmetrized chains, interval cycles, the shuffle product, bases,
and coordinates.

Two independent oracles anchor the core constructions:

- the extraction-order expansion of the alternating chain (sum over all
  orders of pulling entries to the front, signed by extraction
  positions), computed without the recursion the implementation uses;
- the simplicial boundary of the order complex of an open interval,
  which every interval cycle must annihilate.
"""

import random
from itertools import permutations

import pytest

from conftest import algebra_for
from ncphom.chain_algebra import add_into, chain_sum


def brute_alternating_chain(algebra, seq):
    """Sum over extraction orders, independent of the recursion."""
    out = {}
    k = len(seq)
    for order in permutations(range(k)):
        current = list(seq)
        originals = list(range(k))
        key = []
        sign = 1
        for target in order:
            pos = originals.index(target)
            if pos % 2:
                sign = -sign
            picked = current[pos]
            current = [algebra.group.conjugate_position(current[j], picked)
                       if j < pos else current[j]
                       for j in range(len(current)) if j != pos]
            originals.pop(pos)
            key.append(picked)
        add_into(out, tuple(key), sign)
    return out


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "I2(5)"])
def test_alternating_chain_matches_extraction_oracle(name):
    algebra = algebra_for(name)
    rng = random.Random(17)
    n = algebra.group.num_reflections
    for length in (0, 1, 2, 3, 4):
        for trial in range(12):
            seq = tuple(rng.randrange(n) for _ in range(length))
            expected = brute_alternating_chain(algebra, seq)
            cut = {}
            for key, c in expected.items():
                add_into(cut, key[:-1], c)
            # cycles first on half the sequences, so the two kinds cannot
            # share one memo
            if trial % 2:
                assert algebra.interval_cycle(seq) == cut
                assert algebra.alternating_chain(seq) == expected
            else:
                assert algebra.alternating_chain(seq) == expected
                assert algebra.interval_cycle(seq) == cut


def test_pinned_a2_chains():
    algebra = algebra_for("A2")
    assert algebra.alternating_chain((1, 0)) == {(1, 0): 1, (0, 2): -1}
    assert algebra.alternating_chain((2, 1)) == {(2, 1): 1, (1, 0): -1}
    assert algebra.interval_cycle((2, 1)) == {(2,): 1, (1,): -1}
    assert algebra.alternating_chain(()) == {(): 1}
    assert algebra.interval_cycle(()) == algebra.interval_cycle((1,)) == {
        (): 1}


def test_chain_keys_stay_reduced_in_the_lattice():
    algebra = algebra_for("B3")
    lat = algebra.lat
    for vid in range(lat.size):
        for seq in lat.reduced_factorizations(vid):
            for key in algebra.alternating_chain(seq):
                assert algebra._reduced_lattice_id(key) == vid
            for key in algebra.interval_cycle(seq):
                assert algebra._reduced_lattice_id(key) is not None


@pytest.mark.parametrize("name", ["A3", "B3", "H3"])
def test_reduced_lattice_id_matches_the_product_rule(name):
    """The lattice id of a sequence's product, kept only when its rank is
    the sequence length, on random sequences reduced or not."""
    algebra = algebra_for(name)
    lat, group = algebra.lat, algebra.group
    rng = random.Random(41)
    hits = 0
    for _ in range(500):
        seq = tuple(rng.randrange(group.num_reflections)
                    for _ in range(rng.randint(0, 4)))
        vid = lat.index.get(group.sequence_product(seq))
        if vid is not None and lat.rank[vid] != len(seq):
            vid = None
        assert algebra._reduced_lattice_id(seq) == vid
        hits += vid is not None
    assert 0 < hits < 500


def simplicial_boundary_of_cycle(algebra, seq):
    """Push an interval cycle into the order complex of the open interval
    below product(seq) and take the augmented simplicial boundary."""
    group = algebra.group
    out = {}
    for key, coeff in algebra.interval_cycle(seq).items():
        flag = []
        walked = group.identity
        for tpos in key:
            walked = group.multiply(walked, group.reflection(tpos))
            flag.append(walked)
        flag = tuple(flag)
        for j in range(len(flag)):
            face = flag[:j] + flag[j + 1:]
            sign = -1 if j % 2 else 1
            add_into(out, face, sign * coeff)
    return out


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_interval_cycles_kill_the_simplicial_boundary(name):
    algebra = algebra_for(name)
    lat = algebra.lat
    checked = 0
    for vid in range(lat.size):
        if lat.rank[vid] < 2:
            continue
        for seq in lat.reduced_factorizations(vid):
            assert simplicial_boundary_of_cycle(algebra, seq) == {}
            checked += 1
    assert checked > 0


def test_hurwitz_moves_are_braid_moves():
    algebra = algebra_for("A3")
    group = algebra.group
    rng = random.Random(2)
    n = group.num_reflections
    for _ in range(300):
        seq = tuple(rng.randrange(n) for _ in range(5))
        i = rng.randrange(4)
        moved = algebra.hurwitz_move(seq, i)
        assert group.sequence_product(moved) == group.sequence_product(seq)
        assert algebra.hurwitz_move(moved, i, inverse=True) == seq
    with pytest.raises(IndexError):
        algebra.hurwitz_move((0, 1), 1)


def test_deleted_conjugate_shifts_the_product():
    algebra = algebra_for("B3")
    group = algebra.group
    rng = random.Random(6)
    n = group.num_reflections
    for _ in range(100):
        seq = tuple(rng.randrange(n) for _ in range(4))
        i = rng.randrange(4)
        rest = algebra.deleted_conjugate(seq, i)
        lhs = group.multiply(group.reflection(seq[i]),
                             group.sequence_product(rest))
        assert lhs == group.sequence_product(seq)


def test_shuffle_of_generators_is_the_two_letter_chain():
    algebra = algebra_for("A2")
    got = algebra.shuffle_product({(1,): 1}, {(0,): 1})
    assert got == {(1, 0): 1, (0, 2): -1}
    assert got == algebra.alternating_chain((1, 0))


def test_shuffle_builds_longer_alternating_chains():
    algebra = algebra_for("B3")
    rng = random.Random(31)
    n = algebra.group.num_reflections
    for _ in range(20):
        seq = tuple(rng.randrange(n) for _ in range(3))
        prod = algebra.shuffle_product(
            algebra.shuffle_product({(seq[0],): 1}, {(seq[1],): 1}),
            {(seq[2],): 1})
        assert prod == algebra.alternating_chain(seq)


def test_shuffle_is_associative_on_random_chains():
    algebra = algebra_for("A3")
    rng = random.Random(12)
    n = algebra.group.num_reflections

    def random_chain():
        out = {}
        for _ in range(3):
            key = tuple(rng.randrange(n)
                        for _ in range(rng.randint(0, 2)))
            add_into(out, key, rng.randint(-2, 2))
        return out

    for _ in range(40):
        x, y, z = random_chain(), random_chain(), random_chain()
        left = algebra.shuffle_product(algebra.shuffle_product(x, y), z)
        right = algebra.shuffle_product(x, algebra.shuffle_product(y, z))
        assert left == right


def test_reduced_product_projects_off_lattice_shuffles():
    algebra = algebra_for("A3")
    # positions 2 and 5 multiply to a crossing pair, which is outside
    # the lattice, so the product dies entirely
    assert algebra.reduced_product({(2,): 1}, {(5,): 1}) == {}
    # squares die because repeated letters are never reduced
    for i in range(algebra.group.num_reflections):
        assert algebra.reduced_product({(i,): 1}, {(i,): 1}) == {}


def test_rank_two_cyclic_relation_on_dihedral():
    algebra = algebra_for("I2(5)")
    lat = algebra.lat
    total = {}
    for seq in lat.reduced_factorizations(lat.gamma_id):
        part = algebra.reduced_product({(seq[0],): 1}, {(seq[1],): 1})
        total = chain_sum((total, 1), (part, 1))
    assert total == {}


def test_leibniz_identity_on_a3():
    algebra = algebra_for("A3")
    lat = algebra.lat
    for seq in lat.reduced_factorizations(lat.gamma_id):
        lhs = algebra.interval_cycle(seq)
        for i in (1, 2):
            pre, suf = seq[:i], seq[i:]
            sign = -1 if (len(seq) - i) % 2 else 1
            rhs = chain_sum(
                (algebra.reduced_product(algebra.interval_cycle(pre),
                                         algebra.alternating_chain(suf)),
                 sign),
                (algebra.reduced_product(algebra.alternating_chain(pre),
                                         algebra.interval_cycle(suf)), 1))
            assert lhs == rhs


def test_full_basis_sizes_follow_mobius():
    algebra = algebra_for("A3")
    assert [len(algebra.full_basis(k).labels) for k in range(4)] == [
        1, 6, 10, 5]
    assert algebra.full_basis(3).labels == (
        (2, 1, 0), (3, 2, 1), (4, 2, 0), (4, 3, 2), (5, 4, 3))


def test_cycle_basis_tracks_rank_prefixes():
    algebra = algebra_for("A3")
    basis = algebra.cycle_basis(2)
    assert basis.labels == ((1, 0), (2, 0), (3, 1), (4, 0), (5, 3))
    for label, expansion in zip(basis.labels, basis.expansions):
        assert expansion == algebra.interval_cycle(label)
        assert max(expansion) == label[:-1]


def test_coords_round_trip_in_full_bases():
    algebra = algebra_for("A3")
    rng = random.Random(29)
    for k in (1, 2, 3):
        basis = algebra.full_basis(k)
        for _ in range(10):
            coeffs = [rng.randint(-3, 3) for _ in basis.labels]
            chain = {}
            for c, expansion in zip(coeffs, basis.expansions):
                chain = chain_sum((chain, 1), (expansion, c))
            assert algebra.coords_in_basis(chain, basis) == {
                p: c for p, c in enumerate(coeffs) if c}


def test_coords_reject_chains_outside_the_span():
    algebra = algebra_for("A3")
    with pytest.raises(ValueError, match="not in span"):
        algebra.coords_in_basis({(0, 0): 1}, algebra.full_basis(2))


def test_sparse_coordinate_wrappers_agree():
    """Each wrapper's nonzero coordinates, times the basis expansions,
    sum back to the chain it was given."""
    algebra = algebra_for("A3")
    lat = algebra.lat
    cases = [(algebra.chain_coords(seq), algebra.full_basis(2),
              algebra.alternating_chain(seq))
             for vid in lat.rank_row(2)
             for seq in lat.reduced_factorizations(vid)]
    cases += [(algebra.cycle_coords(seq), algebra.cycle_basis(3),
               algebra.interval_cycle(seq))
              for seq in lat.reduced_factorizations(lat.gamma_id)]
    for coords, basis, chain in cases:
        assert coords and all(coords.values())
        assert chain_sum(*((basis.expansions[p], c)
                           for p, c in coords.items())) == chain


FP_COORD_TYPES = ["A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "D4",
                  "D5", "F4", "H3", "H4", "I2(5)", "I2(8)"]


@pytest.mark.parametrize("name", FP_COORD_TYPES)
def test_cycle_coords_match_the_peel_on_every_fp_request(name):
    """Every coordinate request of the FP boundary assembly, answered by
    ``cycle_coords``, equals the peel of the whole interval cycle against
    the whole cycle basis one degree down."""
    algebra = algebra_for(name)
    lat = algebra.lat
    requests = 0
    for k in range(2, algebra.group.rank + 1):
        basis = algebra.cycle_basis(k - 1)
        for label in lat.rank_prefix_basis(k - 1):
            for i in range(k):
                seq = algebra.deleted_conjugate(label, i)
                assert algebra.cycle_coords(seq) == \
                    algebra.coords_in_basis(algebra.interval_cycle(seq),
                                            basis)
                requests += 1
    assert requests


@pytest.mark.parametrize("name", FP_COORD_TYPES)
def test_chain_coords_match_the_peel_on_every_complement_request(name):
    """Every coordinate request of the M and MW boundary assembly, the
    conjugating and the plain deletions of each full basis label,
    answered by ``chain_coords``, equals the peel of the whole
    alternating chain against the whole full basis one degree down."""
    algebra = algebra_for(name)
    requests = 0
    for k in range(1, algebra.group.rank + 1):
        basis = algebra.full_basis(k - 1)
        for label in algebra.full_basis(k).labels:
            for i in range(k):
                for seq in (algebra.deleted_conjugate(label, i),
                            label[:i] + label[i + 1:]):
                    assert algebra.chain_coords(seq) == \
                        algebra.coords_in_basis(
                            algebra.alternating_chain(seq), basis)
                    requests += 1
    assert requests


@pytest.mark.parametrize("name", FP_COORD_TYPES + ["A1", "E6"])
def test_dropping_an_entry_of_a_full_basis_label_gives_a_label(name):
    """A decreasing factorization of w <= gamma less any one entry is a
    decreasing factorization one rank down: Hurwitz moves carry the entry
    to the end, so the rest is a reduced prefix of w."""
    algebra = algebra_for(name)
    for k in range(1, algebra.group.rank + 1):
        below = set(algebra.full_basis(k - 1).labels)
        for label in algebra.full_basis(k).labels:
            for i in range(k):
                assert label[:i] + label[i + 1:] in below


@pytest.mark.parametrize("route", ["coords_in_basis", "leading_coords"])
def test_both_routes_reject_a_chain_whose_maximal_key_is_not_leading(
        route):
    """The leading keys of the A3 degree-3 cycle basis are (2, 1), (3, 2),
    (4, 2), (4, 3) and (5, 4); a chain whose maximal key is (5, 3) or
    (2, 0) is outside the span, with or without leading keys below it."""
    algebra = algebra_for("A3")
    basis = algebra.cycle_basis(3)
    assert sorted(basis.max_key_to_pos) == [
        (2, 1), (3, 2), (4, 2), (4, 3), (5, 4)]
    solve = getattr(algebra, route)
    for chain in ({(5, 3): 1}, {(4, 2): 1, (5, 3): -2}, {(2, 0): 1}):
        with pytest.raises(ValueError, match="not in span"):
            solve(chain, basis)


def test_leading_restriction_is_the_expansion_at_the_leading_keys():
    """Each basis, cycle and full, keeps every expansion at the other
    entries' leading keys, all of them at lower positions."""
    algebra = algebra_for("B3")
    for fibre, degrees in ((True, range(1, 4)), (False, range(4))):
        for k in degrees:
            basis = (algebra.cycle_basis if fibre else algebra.full_basis)(k)
            assert basis.labels == algebra.labels(k, fibre)
            for p, (label, expansion) in enumerate(zip(basis.labels,
                                                       basis.expansions)):
                lead = label[:-1] if fibre else label
                expected = {basis.max_key_to_pos[key]: c
                            for key, c in expansion.items()
                            if key in basis.max_key_to_pos and key != lead}
                assert dict(basis.leading[p]) == expected
                assert all(q < p for q in expected)
