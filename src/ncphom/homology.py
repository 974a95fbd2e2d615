"""Exact integer Smith normal form and homology-group assembly.

Every nonzero matrix goes through one sparse dict-of-dicts elimination
loop with two pivot rules.  A unit pivot is chosen Markowitz-style to
limit fill: a lazy min-heap of column counts yields the shortest column
that holds a +-1 entry, and within it the +-1 entry of the shortest row.
When no unit is left, the pivot is the entry of least absolute value,
then least fill.  Either way the step clears the pivot column by row
operations with the balanced quotient and, once the column is clear,
reduces the pivot row modulo the pivot; a unit pivot clears both at once
and is dropped.  A non-unit step that drops nothing leaves an entry
smaller than every entry before it, and a unit among its remainders goes
back to the heap.  Each step thus either removes a row or lowers the
least absolute entry, so the loop terminates.  Most boundaries of the
bundled tables never need a non-unit pivot and the rest need few, but
fill can leave a large part without units (Dumas, Saunders and Villard,
"On efficient sparse integer matrix Smith normal form computations",
2001).  ``DENSE_LIMIT`` only sorts matrices into two names for the same
function, which the benchmark tracer reads as labels.

It ends with a divisibility fixup (replace any non-dividing pair of
non-unit diagonal entries by gcd and lcm) so the returned factors form
the canonical chain d1 | d2 | ... .

``homology_of`` runs that loop once per boundary, in ascending degree,
and each boundary skips the rows that the unit pivots of the boundary
below matched.  A unit pivot (r0, c0) of d_k is an elementary reduction
of the whole complex (the Gaussian-elimination lemma of Kaczynski,
Mrozek and Slusarek, 1998, that ``complexes`` applies over Z[W]).  Row
r0 of d_k d_{k+1} = 0 reads

    d_k[r0][c0] * (row c0 of d_{k+1}) = - sum over c != c0 of
                                          d_k[r0][c] * (row c of d_{k+1}),

and d_k[r0][c0] = +-1, so row c0 of d_{k+1} is an integer combination of
its other rows: the basis change of C_k that clears row r0 of d_k
replaces row c0 of d_{k+1} by zero and leaves every other row as it was.
The same holds pivot after pivot, because the row operations of the
elimination change only the basis of C_{k-1}, and the column operations
of a unit step change only the row of d_{k+1} that its pivot column
matches.  A non-unit step at column c that reduces its pivot row modulo
the pivot makes column operations too: they add multiples of other rows
of d_{k+1} to row c, which stays, and a unit pivot taken after that
matches a row of the changed d_{k+1}, not of d_{k+1} as given.  So only
the unit pivots taken before a boundary's first non-unit step count,
and ``invariant_factors`` hands their columns on as ``unit_columns``.
Zeroing those rows is a unimodular change of the rows, so d_{k+1} keeps
its Smith form and still composes with d_{k+2} to zero, and the argument
repeats one degree up.  Homology per degree k is then assembled as

    free rank = dim C_k - rank(out of k) - rank(into k),
    torsion   = invariant factors > 1 of the incoming boundary,

with chain degrees re-indexed to topological degrees by the complex's
lowest degree, each degree's group a ``HomologyGroup``.  That value type
lives in ``values``, so reading reference rows does not load this
module; ``homology.HomologyGroup`` is the same object.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

from .values import HomologyGroup

DENSE_LIMIT = 200


class BoundaryMatrix:
    """Sparse integer matrix: entries[(row, col)] = nonzero value."""

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        self.rows = rows
        self.cols = cols
        self.entries = {} if entries is None else entries


def compose(a: BoundaryMatrix, b: BoundaryMatrix) -> BoundaryMatrix:
    """Matrix product a @ b over the integers."""
    if a.cols != b.rows:
        raise ValueError(f"cannot compose a {a.rows}x{a.cols} matrix with "
                         f"a {b.rows}x{b.cols} matrix")
    rows_of_a: dict = {}
    for (r, c), v in a.entries.items():
        rows_of_a.setdefault(c, []).append((r, v))  # keyed by a's column
    out = BoundaryMatrix(a.rows, b.cols)
    acc: dict = {}
    for (mid, c), v in b.entries.items():
        for r, w in rows_of_a.get(mid, ()):
            key = (r, c)
            new = acc.get(key, 0) + w * v
            acc[key] = new
    out.entries = {k: v for k, v in acc.items() if v}
    return out


class SmithForm(tuple):
    """``(factors, rank)``, with the columns of the unit pivots taken
    before the first non-unit step as ``unit_columns``."""

    unit_columns = ()


def invariant_factors(matrix: BoundaryMatrix) -> SmithForm:
    """All invariant factors (including 1s) as the divisibility chain, and
    the rank (= their count), with the matched columns that the next
    boundary up may skip as rows."""
    if not matrix.entries:
        return SmithForm(([], 0))
    if matrix.rows <= DENSE_LIMIT and matrix.cols <= DENSE_LIMIT:
        diag, unit_columns = _dense_diagonalize(matrix)
    else:
        diag, unit_columns = _sparse_diagonalize(matrix)
    factors = _divisibility_fixup([abs(d) for d in diag if d])
    out = SmithForm((factors, len(factors)))
    out.unit_columns = unit_columns
    return out


def _sparse_diagonalize(matrix: BoundaryMatrix):
    """The diagonal of a Smith form of ``matrix``, up to sign and the
    divisibility fixup, and the pivot columns of the unit steps taken
    before the first non-unit step, in the order taken.

    Each step takes a pivot, clears its column by row operations with the
    balanced quotient, and, if that leaves the column clear, reduces the
    pivot row modulo the pivot.  If the row reduces to nothing the pivot is
    recorded and dropped; otherwise it goes back and the loop goes round
    again.  A unit pivot always clears its row and column.  A non-unit
    pivot is only ever taken as the least entry, so a step that removes
    no row leaves an entry smaller in absolute value than every entry
    before it.  No step adds a row, and between two row removals the
    least absolute entry falls at every step, so the loop terminates.
    """
    rows: dict = {}
    cols: dict = {}
    for (r, c), v in matrix.entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)
    # The loop needs every entry inside the shape and nonzero: a stored
    # zero crashes a step or is taken as a pivot.  Explicit raises, so the
    # checks also run under ``python -O``.
    if rows and not (0 <= min(rows) and max(rows) < matrix.rows
                     and 0 <= min(cols) and max(cols) < matrix.cols):
        r, c = next(key for key in matrix.entries
                    if not (0 <= key[0] < matrix.rows
                            and 0 <= key[1] < matrix.cols))
        raise ValueError(f"entry ({r}, {c}) lies outside the "
                         f"{matrix.rows}x{matrix.cols} matrix")
    if 0 in matrix.entries.values():
        r, c = next(key for key, v in matrix.entries.items() if not v)
        raise ValueError(f"entry ({r}, {c}) of the "
                         f"{matrix.rows}x{matrix.cols} matrix is zero")
    diag = []
    unit_columns = []
    leading = True  # no non-unit step yet
    # Heap entries whose count no longer matches the column are stale and
    # skipped; a column without a unit is dropped until a step touches it.
    heap = [(len(rs), c) for c, rs in cols.items()]
    heapify(heap)
    while rows:
        while heap:
            count, pc = heappop(heap)
            pcol = cols.get(pc)
            if pcol is None or len(pcol) != count:
                continue
            pr = min((r for r in pcol if rows[r][pc] in (1, -1)),
                     key=lambda r: (len(rows[r]), r), default=None)
            if pr is not None:
                if leading:
                    unit_columns.append(pc)
                break
        else:
            leading = False
            _, _, pr, pc = min(
                (abs(v), (len(row) - 1) * (len(cols[c]) - 1), r, c)
                for r, row in rows.items() for c, v in row.items())
            pcol = cols[pc]
        touched = prow = rows.pop(pr)
        pv = prow.pop(pc)
        pcol.discard(pr)
        for c in prow:
            cols[c].discard(pr)
        size = abs(pv)
        half = (size - 1) // 2  # remainders fall in -half..size-1-half
        left = cols[pc] = set()
        for r in pcol:
            row = rows[r]
            v = row[pc]
            rem = (v + half) % size - half
            q = (v - rem) // pv
            if rem:
                row[pc] = rem
                left.add(r)
            else:
                del row[pc]
            for c, w in prow.items():
                v = row.get(c, 0) - q * w
                if v:
                    if c not in row:
                        cols[c].add(r)
                    row[c] = v
                else:
                    del row[c]
                    cols[c].discard(r)
            if not row:
                del rows[r]
        if not left:
            # Column operations now change only the pivot row, so reduce
            # it modulo pv; a unit reduces it to nothing.
            prow = {} if size == 1 else {
                c: rem for c, w in prow.items()
                if (rem := (w + half) % size - half)}
        if left or prow:
            prow[pc] = pv
            rows[pr] = prow
            for c in prow:
                cols[c].add(pr)
        else:
            diag.append(pv)
            del cols[pc]
        for c in touched:
            col = cols[c]
            if col:
                heappush(heap, (len(col), c))
            else:
                del cols[c]
    return diag, unit_columns


# perfbench/tracing.py and its self-test still read DENSE_LIMIT and patch
# both names, so the small-matrix name stays, bound to the same function.
_dense_diagonalize = _sparse_diagonalize


def _divisibility_fixup(factors):
    # 1 divides everything, so only the other factors need fixing up.
    # Replacing a pair by (gcd, lcm) is a compare-exchange of every prime's
    # exponent, and all pairs i < j in order form a sorting network: once
    # position i has met every later position it holds the least exponent
    # of each prime among them.  So one pass leaves every prime's exponents
    # ascending, which is a divisibility chain.
    ones = [f for f in factors if f == 1]
    factors = [f for f in factors if f != 1]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            if b % a:
                g = gcd(a, b)
                factors[i], factors[j] = g, a * b // g
    return ones + factors


def homology_of(complex_) -> list:
    """Integral homology of a chain complex, one HomologyGroup per
    topological degree starting at 0.

    The complex supplies ascending chain degrees, a dimension per degree,
    and matrices[d] : C_d -> C_{d-1} for every degree above the lowest.
    Chain degree d becomes topological degree d - min(degrees).  Each
    boundary's Smith form leaves out the rows that the unit pivots of the
    boundary below matched (see the module docstring).
    """
    degrees = _chain_degrees(complex_)
    offset = degrees[0]
    if degrees != list(range(offset, offset + len(degrees))):
        raise ValueError(f"chain degrees must be consecutive and ascending: "
                         f"{degrees}")
    ranks = {}
    torsion = {}
    matched = ()  # rows of the next boundary that unit pivots matched
    for d in degrees[1:]:
        matrix = complex_.matrices.get(d)
        if matrix is None:
            raise ValueError(f"chain complex has no boundary matrix in "
                             f"degree {d}")
        if (matrix.rows, matrix.cols) != (complex_.dims[d - 1],
                                          complex_.dims[d]):
            raise ValueError(f"boundary {d} is {matrix.rows}x{matrix.cols}, "
                             f"not {complex_.dims[d - 1]}x"
                             f"{complex_.dims[d]}")
        if matched:
            skip = set(matched)
            matrix = BoundaryMatrix(matrix.rows, matrix.cols, {
                key: v for key, v in matrix.entries.items()
                if key[0] not in skip})
        smith = invariant_factors(matrix)
        factors, ranks[d] = smith
        matched = smith.unit_columns
        torsion[d] = tuple(f for f in factors if f > 1)
    out = []
    for d in degrees:
        free = complex_.dims[d] - ranks.get(d, 0) - ranks.get(d + 1, 0)
        out.append(HomologyGroup(free, torsion.get(d + 1, ())))
    return out


def euler_characteristic(complex_) -> int:
    """Alternating sum of dimensions in topological degrees."""
    degrees = _chain_degrees(complex_)
    offset = min(degrees)
    return sum((-1) ** (d - offset) * complex_.dims[d] for d in degrees)


def _chain_degrees(complex_) -> list:
    """The complex's chain degrees, checked to be at least one."""
    degrees = list(complex_.degrees)
    if not degrees:
        raise ValueError("chain complex has no degrees")
    return degrees
