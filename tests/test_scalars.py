"""Exact scalar arithmetic and the small dense helpers."""

import random
from fractions import Fraction

import pytest

from ncphom.scalars import (GOLDEN_RATIO, GoldenNumber, dot, identity_matrix,
                            integer_rank, mat_mul, mat_rank, mat_vec,
                            solve_linear)


def test_golden_ratio_satisfies_its_equation():
    phi = GOLDEN_RATIO
    assert phi * phi == phi + 1
    assert phi * phi - phi - 1 == GoldenNumber(0)
    assert 1 < phi < 2


def test_golden_arithmetic_field_laws():
    rng = random.Random(11)
    nums = [GoldenNumber(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            for _ in range(12)]
    for x in nums:
        for y in nums:
            assert x + y == y + x
            assert x * y == y * x
            if y:
                assert (x / y) * y == x
    x, y, z = nums[:3]
    assert (x + y) * z == x * z + y * z


def test_golden_sign_with_opposite_components():
    # 3 - sqrt(5) > 0 but 2 - sqrt(5) < 0
    assert GoldenNumber(3, -1) > 0
    assert GoldenNumber(2, -1) < 0
    assert GoldenNumber(-3, 1) < 0
    assert GoldenNumber(-2, 1) > 0
    assert GoldenNumber(0, 1) > 2  # sqrt(5) > 2
    assert GoldenNumber(0, 1) < 3


def test_golden_total_order_is_consistent():
    rng = random.Random(5)
    nums = [GoldenNumber(rng.randint(-6, 6), rng.randint(-6, 6))
            for _ in range(20)]
    for x in nums:
        for y in nums:
            assert (x < y) + (x == y) + (x > y) == 1
            assert (x <= y) == (x < y or x == y)


def test_golden_coercion_and_hash():
    assert GoldenNumber(3) == 3
    assert 3 + GoldenNumber(0, 1) == GoldenNumber(3, 1)
    assert hash(GoldenNumber(Fraction(7, 2))) == hash(Fraction(7, 2))
    with pytest.raises(TypeError):
        GOLDEN_RATIO + 0.5
    with pytest.raises(ZeroDivisionError):
        GOLDEN_RATIO / GoldenNumber(0)


def test_dense_helpers_over_fractions():
    one = Fraction(1)
    ident = identity_matrix(3, one)
    m = ((one, 2 * one, 0 * one),
         (0 * one, one, one),
         (one, 0 * one, one))
    assert mat_mul(ident, m) == m
    assert mat_vec(m, (one, one, one)) == (3 * one, 2 * one, 2 * one)
    assert mat_rank(m) == 3
    singular = ((one, one), (one, one))
    assert mat_rank(singular) == 1
    assert dot((one, 2 * one), (3 * one, 4 * one)) == 11


def test_solve_linear_random_round_trip():
    rng = random.Random(23)
    solved = 0
    while solved < 25:
        n = rng.randint(1, 4)
        m = tuple(tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
                  for _ in range(n))
        if mat_rank(m) < n:
            continue
        v = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
        x = solve_linear(m, v)
        assert mat_vec(m, x) == v
        solved += 1


def test_solve_linear_rejects_singular():
    one = Fraction(1)
    with pytest.raises(ValueError):
        solve_linear(((one, one), (one, one)), (one, 0 * one))


def test_helpers_work_over_golden_numbers():
    phi = GOLDEN_RATIO
    ident = identity_matrix(2, GoldenNumber(1))
    m = ((phi, GoldenNumber(1)), (GoldenNumber(1), GoldenNumber(0)))
    assert mat_mul(m, ident) == m
    assert mat_rank(m) == 2
    x = solve_linear(m, (GoldenNumber(1), GoldenNumber(0)))
    assert mat_vec(m, x) == (GoldenNumber(1), GoldenNumber(0))


def test_integer_rank_matches_the_field_rank():
    rng = random.Random(13)
    for _ in range(300):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        rank = rng.randint(0, min(rows, cols))
        # a random product of two factors has rank at most `rank`
        left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rows)]
        right = [[rng.randint(-4, 4) for _ in range(cols)]
                 for _ in range(rank)]
        m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
             if rank else [0] * cols for row in left]
        expected = mat_rank(tuple(tuple(Fraction(x) for x in row)
                                  for row in m))
        assert integer_rank(m) == expected, m
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
