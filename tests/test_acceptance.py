"""Acceptance gate.

One test per shipping criterion, in order.  Every homology comparison is
exact over the integers, tolerance zero.  Each test prints a single
PASS/FAIL line (visible even under capture) naming the gate, what it
covered, and how long it took against its budget, then asserts.

Computed tables are cached across gates, so the Euler-divisibility gate
reuses the fibre complexes of the gate before it.
"""

import random
import time

from conftest import algebra_for, group_for, lattice_for
from test_algebra import simplicial_boundary_of_cycle
from test_coxgroup import _bfs_reflection_lengths
from test_homology import _matrix_from_rows, determinantal_divisor_factors

from ncphom import (HomologyGroup, build_complex, euler_characteristic,
                    homology_of, invariant_factors, lookup, property_suite)
from ncphom.properties import SUPPORTED_RANK4

_computed = {}


def computed(type_name, space):
    """Homology groups and Euler characteristic, cached per table."""
    key = (type_name, space)
    if key not in _computed:
        complex_ = build_complex(algebra_for(type_name), space)
        _computed[key] = (tuple(homology_of(complex_)),
                          euler_characteristic(complex_))
    return _computed[key]


def run_gate(capsys, label, budget, body):
    """Time one gate, print its single PASS/FAIL line, then assert."""
    start = time.monotonic()
    try:
        detail = body()
        ok = True
    except AssertionError as err:
        detail = str(err) or "assertion failed"
        ok = False
    elapsed = time.monotonic() - start
    if ok and budget is not None and elapsed > budget:
        ok = False
        detail = f"{detail}; over budget"
    timing = f" in {elapsed:.1f}s"
    if budget is not None:
        timing += f" (budget {budget}s)"
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}{timing}"
    with capsys.disabled():
        print(line)
    assert ok, line


def groups_of(*items):
    """HomologyGroup tuple from free ranks or (free, torsion) pairs."""
    return tuple(
        HomologyGroup(item) if isinstance(item, int)
        else HomologyGroup(item[0], item[1])
        for item in items)


SMALL_FP_TYPES = tuple(f"I2({m})" for m in range(3, 13)) + (
    "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D3", "D4", "H3")
MEDIUM_FP_TYPES = ("A6", "B5", "D5", "F4", "H4")
FQ0_TYPES = tuple(f"I2({m})" for m in range(3, 11)) + (
    "A2", "A3", "B3", "D3", "H3")


def test_gate_01_small_discriminant_fibre_tables(capsys):
    def body():
        for name in SMALL_FP_TYPES:
            groups, _ = computed(name, "FP")
            expected = tuple(lookup(name, "FP").groups)
            assert groups == expected, (
                f"{name}: got {groups} want {expected}")
        # pin the stated sample rows literally
        assert computed("A3", "FP")[0] == groups_of(1, 2, 2)
        assert computed("B3", "FP")[0] == groups_of(1, 1, 3)
        assert computed("H3", "FP")[0] == groups_of(1, 0, 7)
        assert computed("D4", "FP")[0] == groups_of(1, 2, (4, (2,)), 5)
        for m in range(3, 13):
            assert computed(f"I2({m})", "FP")[0] == groups_of(1, m - 1)
        return f"{len(SMALL_FP_TYPES)} discriminant-fibre tables match"
    run_gate(capsys, "gate-1 small discriminant-fibre tables", 10, body)


def test_gate_02_medium_discriminant_fibre_tables(capsys):
    def body():
        for name in MEDIUM_FP_TYPES:
            groups, _ = computed(name, "FP")
            expected = tuple(lookup(name, "FP").groups)
            assert groups == expected, (
                f"{name}: got {groups} want {expected}")
        assert computed("F4", "FP")[0] == groups_of(1, 1, 5, 15)
        assert computed("H4", "FP")[0] == groups_of(1, 0, (0, (2,)), 43)
        return f"{len(MEDIUM_FP_TYPES)} discriminant-fibre tables match"
    run_gate(capsys, "gate-2 medium discriminant-fibre tables", 300, body)


def test_gate_03_identity_fibre_component_tables(capsys):
    def body():
        for m in range(3, 11):
            assert computed(f"I2({m})", "FQ0")[0] == groups_of(
                1, (m - 1) ** 2), f"I2({m})"
        assert computed("A2", "FQ0") == (groups_of(1, 4), -3)
        assert computed("A3", "FQ0") == (groups_of(1, 7, 18), 12)
        assert computed("B3", "FQ0") == (groups_of(1, 8, 79), 72)
        assert computed("D3", "FQ0")[0] == computed("A3", "FQ0")[0]
        assert computed("H3", "FQ0")[0] == groups_of(1, 14, 493)
        return f"{len(FQ0_TYPES)} identity-fibre tables match"
    run_gate(capsys, "gate-3 identity fibre component tables", 600, body)


def test_gate_04_fibre_euler_divisible_by_reflection_count(capsys):
    def body():
        for name in FQ0_TYPES:
            _, euler = computed(name, "FQ0")
            hyperplanes = group_for(name).num_reflections
            assert euler % hyperplanes == 0, (
                f"{name}: chi {euler} mod {hyperplanes} != 0")
        return (f"chi = 0 mod reflection count for "
                f"{len(FQ0_TYPES)} fibre tables")
    run_gate(capsys, "gate-4 fibre Euler divisibility", None, body)


def _exponent_product(exponents):
    """Betti numbers of the complement from its exponents: the
    coefficients of prod_i (1 + e_i q)."""
    poly = [1]
    for e in exponents:
        poly = [a + e * b for a, b in zip(poly + [0], [0] + poly)]
    return tuple(poly)


def test_gate_05_complement_and_artin_answers(capsys):
    def body():
        for m in range(3, 11):
            expected = (groups_of(1, 1, 0) if m % 2
                        else groups_of(1, 2, 1))
            assert computed(f"I2({m})", "MW")[0] == expected, f"I2({m})"
        torsion_free = ("A2", "A3", "B3") + tuple(
            f"I2({m})" for m in range(3, 9))
        for name in torsion_free:
            groups, _ = computed(name, "M")
            assert all(not g.torsion for g in groups), name
        betti = tuple(g.free_rank for g in computed("A2", "M")[0])
        assert betti == _exponent_product([1, 2]) == (1, 3, 2), betti
        return (f"8 Artin tables, {len(torsion_free)} torsion-free "
                f"complements, exponent Betti oracle")
    run_gate(capsys, "gate-5 complement and Artin answers", 60, body)


def test_gate_06_structural_property_suite(capsys):
    def body():
        count = 0
        for name in SUPPORTED_RANK4:
            for check, ok, detail in property_suite(name):
                assert ok, f"{name}/{check}: {detail}"
                count += 1
        return f"{count} checks over {len(SUPPORTED_RANK4)} types"
    run_gate(capsys, "gate-6 structural property suite", 300, body)


def test_gate_07_independent_oracles_agree(capsys):
    def body():
        # reflection length: mean trace over the simple-root cycles
        # against plain word-length search, on every supported group of
        # order <= 48
        length_types = ["A1", "A2", "A3", "B2", "B3", "D3"] + [
            f"I2({m})" for m in range(3, 25)]
        for name in length_types:
            group = group_for(name)
            assert group.ctype.group_order <= 48, name
            oracle = _bfs_reflection_lengths(group)
            assert len(oracle) == group.ctype.group_order
            for w, expected in oracle.items():
                assert group.reflection_length(w) == expected, name
        # Smith form against determinantal divisors on random matrices
        rng = random.Random(7)
        trials = 0
        for _ in range(500):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(n)]
                    for _ in range(m)]
            expected = determinantal_divisor_factors(rows)
            factors, rank = invariant_factors(_matrix_from_rows(rows))
            assert factors == expected and rank == len(expected), rows
            trials += 1
        # interval cycles against the brute simplicial boundary
        cycles = 0
        for name in ("A3", "B3"):
            algebra = algebra_for(name)
            lat = lattice_for(name)
            for vid in range(lat.size):
                if lat.rank[vid] < 2:
                    continue
                for seq in lat.reduced_factorizations(vid):
                    assert simplicial_boundary_of_cycle(
                        algebra, seq) == {}, seq
                    cycles += 1
        return (f"{len(length_types)} length tables, {trials} Smith "
                f"forms, {cycles} interval cycles agree")
    run_gate(capsys, "gate-7 independent oracles", None, body)
