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
the canonical chain d1 | d2 | ... .  Homology per degree k is assembled as

    free rank = dim C_k - rank(out of k) - rank(into k),
    torsion   = invariant factors > 1 of the incoming boundary,

with chain degrees re-indexed to topological degrees by the complex's
lowest degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import gcd

DENSE_LIMIT = 200


@dataclass
class BoundaryMatrix:
    """Sparse integer matrix: entries[(row, col)] = nonzero value."""

    rows: int
    cols: int
    entries: dict = field(default_factory=dict)


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


def invariant_factors(matrix: BoundaryMatrix):
    """All invariant factors (including 1s) as the divisibility chain, and
    the rank (= their count)."""
    if not matrix.entries:
        return [], 0
    if matrix.rows <= DENSE_LIMIT and matrix.cols <= DENSE_LIMIT:
        diag = _dense_diagonalize(matrix)
    else:
        diag = _sparse_diagonalize(matrix)
    factors = _divisibility_fixup([abs(d) for d in diag if d])
    return factors, len(factors)


def _sparse_diagonalize(matrix: BoundaryMatrix):
    """The diagonal of a Smith form of ``matrix``, up to sign and the
    divisibility fixup.

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
    diag = []
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
                break
        else:
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
    return diag


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


@dataclass(frozen=True)
class HomologyGroup:
    """One integral homology group: free rank plus invariant-factor
    torsion (each factor > 1, each dividing the next)."""

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError(f"negative free rank {self.free_rank}")
        if any(t <= 1 for t in self.torsion):
            raise ValueError(f"torsion factors must exceed 1: {self.torsion}")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(
                    f"torsion factors must divide the next: {self.torsion}")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{t}" for t in self.torsion)
        return "+".join(parts) if parts else "0"

    def to_dict(self) -> dict:
        return {"free": self.free_rank, "torsion": list(self.torsion)}

    @staticmethod
    def from_dict(d: dict) -> "HomologyGroup":
        return HomologyGroup(d["free"], tuple(d["torsion"]))

    def doubled(self) -> "HomologyGroup":
        """Direct sum with itself."""
        return HomologyGroup(
            2 * self.free_rank,
            tuple(sorted(self.torsion + self.torsion)))


def homology_of(complex_) -> list:
    """Integral homology of a chain complex, one HomologyGroup per
    topological degree starting at 0.

    The complex supplies ascending chain degrees, a dimension per degree,
    and matrices[d] : C_d -> C_{d-1} for every degree above the lowest.
    Chain degree d becomes topological degree d - min(degrees).
    """
    degrees = list(complex_.degrees)
    offset = degrees[0]
    if degrees != list(range(offset, offset + len(degrees))):
        raise ValueError(f"chain degrees must be consecutive and ascending: "
                         f"{degrees}")
    ranks = {}
    torsion = {}
    for d in degrees[1:]:
        factors, rank = invariant_factors(complex_.matrices[d])
        ranks[d] = rank
        torsion[d] = tuple(f for f in factors if f > 1)
    out = []
    for d in degrees:
        free = complex_.dims[d] - ranks.get(d, 0) - ranks.get(d + 1, 0)
        out.append(HomologyGroup(free, torsion.get(d + 1, ())))
    return out


def euler_characteristic(complex_) -> int:
    """Alternating sum of dimensions in topological degrees."""
    offset = min(complex_.degrees)
    return sum((-1) ** (d - offset) * complex_.dims[d]
               for d in complex_.degrees)
