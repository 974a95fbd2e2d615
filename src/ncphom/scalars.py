"""Exact scalar arithmetic and small dense linear algebra.

Reflection matrices for the crystallographic types live over the rationals
(`fractions.Fraction`).  The icosahedral types need the field Q(sqrt 5), so
`GoldenNumber` implements a + b*sqrt(5) with exact comparisons.  Both scalar
types expose the same arithmetic surface, which is all the generic helpers
below rely on: +, -, *, /, ==, bool, and a total order.

Matrices are tuples of tuples (immutable, hashable); vectors are tuples.
Everything here is dense and small: ambient dimensions never exceed 9.
"""

from __future__ import annotations

from fractions import Fraction


class GoldenNumber:
    """An element a + b*sqrt(5) of Q(sqrt 5), with a, b rational.

    Comparison is exact: a + b*sqrt(5) > 0 iff
    - a >= 0 and b >= 0 (not both zero), or
    - a >= 0 > b and a*a > 5*b*b, or
    - b >= 0 > a and 5*b*b > a*a.

    >>> phi = GoldenNumber(Fraction(1, 2), Fraction(1, 2))
    >>> phi * phi == phi + 1
    True
    >>> phi > 1 and phi < 2
    True
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @staticmethod
    def _coerce(x) -> "GoldenNumber":
        if isinstance(x, GoldenNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return GoldenNumber(x, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GoldenNumber(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GoldenNumber(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GoldenNumber(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # (a + b r5)(c + d r5) = ac + 5bd + (ad + bc) r5
        return GoldenNumber(self.a * o.a + 5 * self.b * o.b,
                            self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # multiply by the conjugate: norm = c^2 - 5 d^2
        norm = o.a * o.a - 5 * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 5)")
        num = self * GoldenNumber(o.a, -o.b)
        return GoldenNumber(num.a / norm, num.b / norm)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GoldenNumber(-self.a, -self.b)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def _sign(self) -> int:
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # opposite signs: compare a^2 with 5 b^2; sqrt(5) is irrational so
        # equality cannot occur for nonzero a, b
        if a > 0:  # b < 0
            return 1 if a * a > 5 * b * b else -1
        return 1 if 5 * b * b > a * a else -1

    def __lt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o)._sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o)._sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o)._sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o)._sign() >= 0

    def __repr__(self):
        if self.b == 0:
            return f"GoldenNumber({self.a})"
        return f"GoldenNumber({self.a}, {self.b})"


GOLDEN_RATIO = GoldenNumber(Fraction(1, 2), Fraction(1, 2))


# ---------------------------------------------------------------------------
# dense helpers over any exact field scalar


def mat_vec(m, v):
    """Matrix times column vector."""
    return tuple(sum((row[j] * v[j] for j in range(len(v))), 0 * row[0])
                 for row in m)


def mat_mul(m1, m2):
    """Matrix product m1 @ m2."""
    cols = tuple(zip(*m2))
    return tuple(tuple(sum((a * b for a, b in zip(row, col)), 0 * row[0])
                       for col in cols)
                 for row in m1)


def identity_matrix(n, one):
    zero = one - one
    return tuple(tuple(one if i == j else zero for j in range(n))
                 for i in range(n))


def mat_rank(m) -> int:
    """Rank by Gaussian elimination over the scalar field."""
    rows = [list(r) for r in m]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / pv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def integer_rank(rows) -> int:
    """Rank over Q of an integer matrix, by fraction-free (Bareiss)
    elimination: every entry stays an integer minor, so each division by
    the previous pivot is exact."""
    rows = [list(r) for r in rows]
    rank, previous = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        pv = top[col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            rows[r] = [(pv * x - f * y) // previous
                       for x, y in zip(rows[r], top)]
        previous = pv
        rank += 1
        if rank == len(rows):
            break
    return rank


def solve_linear(m, v):
    """Solve m @ x = v for square invertible m; returns x as a tuple."""
    n = len(m)
    aug = [list(row) + [v[i]] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(aug[r][n] for r in range(n))


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), 0 * u[0])
