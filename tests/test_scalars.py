"""The exact sign of a + b phi in Z[phi], which decides the positive
roots of H3 and H4, and the rank over Q that the group tests use as an
oracle for reflection length."""

from fractions import Fraction

from ncphom.rootsys import _nonnegative

PHI = (1 + 5 ** 0.5) / 2


def test_golden_sign_with_opposite_components():
    # 2 - phi > 0 but 1 - phi < 0; phi - 1 > 0 but phi - 2 < 0
    assert _nonnegative(2, -1) and not _nonnegative(1, -1)
    assert _nonnegative(-1, 1) and not _nonnegative(-2, 1)
    assert _nonnegative(0, 0) and _nonnegative(3, 0) and _nonnegative(0, 1)
    assert not _nonnegative(-1, 0) and not _nonnegative(0, -1)
    # F(k+1) - F(k) phi alternates in sign and shrinks towards 0
    fib = [0, 1]
    while len(fib) < 30:
        fib.append(fib[-1] + fib[-2])
    for k in range(1, 29):
        assert _nonnegative(fib[k + 1], -fib[k]) == (k % 2 == 0)


def test_golden_total_order_is_consistent():
    """Against floating point, away from the rounding error of phi."""
    for a in range(-40, 41):
        for b in range(-40, 41):
            x = a + b * PHI
            if abs(x) > 1e-9:
                assert _nonnegative(a, b) == (x > 0), (a, b)
                assert _nonnegative(-a, -b) == (x < 0), (a, b)


def _field_rank(rows):
    """Oracle: rank by Gaussian elimination over Q."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank
