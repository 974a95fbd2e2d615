"""Exact integer Smith normal form and homology-group assembly.

Two elimination paths compute invariant factors:

- a dense textbook reduction for small matrices (pivot = entry of minimal
  absolute value, ties broken by lowest row then column),
- a sparse dict-of-dicts elimination for the larger boundary matrices,
  in two phases.  First unit pivots, chosen Markowitz-style to limit
  fill: a lazy min-heap of column counts yields the shortest column that
  holds a +-1 entry, and within it the +-1 entry of the shortest row.
  Clearing that column by row operations stays integral because the
  pivot is a unit; the pivot row and column are then dropped.  Second,
  the core left when no unit remains goes through a minimal-|v|
  reduction (least fill among equal pivots) whose balanced remainders
  shrink the minimum absolute entry monotonically, so the loop
  terminates.  Most boundaries of the bundled tables leave no core, the
  rest a few hundred nonzeros, but fill can still make it large (Dumas,
  Saunders and Villard, "On efficient sparse integer matrix Smith normal
  form computations", 2001).

Both end with a divisibility fixup (replace any non-dividing pair of
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

    def set(self, row: int, col: int, value: int) -> None:
        if value:
            self.entries[(row, col)] = value
        else:
            self.entries.pop((row, col), None)

    def is_zero(self) -> bool:
        return not self.entries


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


def _dense_diagonalize(matrix: BoundaryMatrix):
    m, n = matrix.rows, matrix.cols
    a = [[0] * n for _ in range(m)]
    for (r, c), v in matrix.entries.items():
        a[r][c] = v
    diag = []
    top = 0
    while top < m and top < n:
        pivot = None
        best = None
        for i in range(top, m):
            row = a[i]
            for j in range(top, n):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != top:
            a[top], a[pi] = a[pi], a[top]
        if pj != top:
            for row in a:
                row[top], row[pj] = row[pj], row[top]
        while True:
            p = a[top][top]
            dirty = False
            for i in range(top + 1, m):
                v = a[i][top]
                if v:
                    q = v // p
                    if q:
                        arow, trow = a[i], a[top]
                        for j in range(top, n):
                            arow[j] -= q * trow[j]
                    if a[i][top]:  # remainder smaller than |p|: new pivot
                        a[top], a[i] = a[i], a[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(top + 1, n):
                v = a[top][j]
                if v:
                    q = v // p
                    if q:
                        for row in a:
                            row[j] -= q * row[top]
                    if a[top][j]:
                        for row in a:
                            row[top], row[j] = row[j], row[top]
                        dirty = True
                        break
            if not dirty:
                break
        diag.append(a[top][top])
        top += 1
    return diag


def _sparse_diagonalize(matrix: BoundaryMatrix):
    rows: dict = {}
    cols: dict = {}
    for (r, c), v in matrix.entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)
    diag = []

    # Unit pivots, shortest column first.  Heap entries whose count no
    # longer matches the column are stale and skipped; a column without a
    # unit is dropped until fill changes it and pushes it again.
    heap = [(len(rs), c) for c, rs in cols.items()]
    heapify(heap)
    while heap:
        count, pc = heappop(heap)
        pcol = cols.get(pc)
        if pcol is None or len(pcol) != count:
            continue
        pr = min((r for r in pcol if rows[r][pc] in (1, -1)),
                 key=lambda r: (len(rows[r]), r), default=None)
        if pr is None:
            continue
        prow = rows.pop(pr)
        pv = prow.pop(pc)
        pcol.discard(pr)
        for c in prow:
            cols[c].discard(pr)
        # Clear the pivot column by row operations; clearing the pivot row
        # by column operations would then touch no other row, so it is
        # skipped.  Only the pivot row's columns change.
        for r in pcol:
            row = rows[r]
            q = row.pop(pc) * pv
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
        del cols[pc]
        diag.append(pv)
        for c in prow:
            col = cols[c]
            if col:
                heappush(heap, (len(col), c))
            else:
                del cols[c]

    # The core, where no entry is a unit: minimal-|v| pivots.
    def discard(r, c):
        row = rows[r]
        row.pop(c, None)
        if not row:
            del rows[r]
        colset = cols[c]
        colset.discard(r)
        if not colset:
            del cols[c]

    def put(r, c, v):
        if v:
            if c not in rows.setdefault(r, {}):
                cols.setdefault(c, set()).add(r)
            rows[r][c] = v
        elif r in rows and c in rows[r]:
            discard(r, c)

    while rows:
        # pivot: min |v|, among those least fill
        best = None
        best_key = None
        for r, row in rows.items():
            for c, v in row.items():
                fill = (len(row) - 1) * (len(cols[c]) - 1)
                key = (abs(v), fill, r, c)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (r, c, v)
            if best_key[:2] == (1, 0):
                break
        pr, pc, pv = best
        # reduce the pivot column
        clean = True
        for r in list(cols[pc]):
            if r == pr:
                continue
            v = rows[r][pc]
            q = v // pv
            if 2 * abs(v - q * pv) > abs(pv):  # balanced remainder
                q += 1
            if q:
                prow = rows[pr]
                for c, w in list(prow.items()):
                    put(r, c, rows.get(r, {}).get(c, 0) - q * w)
            if rows.get(r, {}).get(pc, 0):
                clean = False
        if not clean:
            continue
        # reduce the pivot row
        for c in list(rows[pr].keys()):
            if c == pc:
                continue
            v = rows[pr][c]
            q = v // pv
            if 2 * abs(v - q * pv) > abs(pv):
                q += 1
            if q:
                for r in list(cols[pc]):
                    put(r, c, rows.get(r, {}).get(c, 0) - q * rows[r][pc])
            if rows[pr].get(c, 0):
                clean = False
        if not clean:
            continue
        # pivot row and column are clean: extract
        diag.append(pv)
        discard(pr, pc)
    return diag


def _divisibility_fixup(factors):
    # 1 divides everything, so only the other factors need fixing up.
    ones = [f for f in factors if f == 1]
    factors = sorted(f for f in factors if f != 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                a, b = factors[i], factors[j]
                if b % a:
                    g = gcd(a, b)
                    factors[i] = g
                    factors[j] = a * b // g
                    changed = True
        if changed:
            factors.sort()
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
