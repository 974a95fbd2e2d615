"""Root systems from Coxeter diagrams, in integer simple-root coordinates.

Each type is given by its diagram, with Bourbaki's node numbering
(Lie Groups and Lie Algebras, Ch. VI, Plates I-IX; the README has a
table) and, for H3 and H4, the 5-bond end first.  The diagram gives a
Cartan matrix C[i][j] = <alpha_i, alpha_j^vee> with entries in
Z[phi] = Z + Z phi, phi^2 = phi + 1: -1 on a simple bond, -2 and -1 on a
4-bond (long row first), -phi on a 5-bond, 2 on the diagonal.  Closing
the simple roots under

    s_j(beta) = beta - <beta, alpha_j^vee> alpha_j

gives every root as a tuple of 2n ints (a_1..a_n, b_1..b_n), meaning
sum (a_i + b_i phi) alpha_i; the b half is zero except for H.  There is
no ambient space and no field arithmetic.

The construction fixes, once and for all:

- a bipartition of the simple roots (two-coloring of the diagram, the class
  of the lowest-index node first),
- the bipartite Coxeter element: product of the first color class times the
  product of the second,
- a total order on all reflections, through the root sequence

      rho_k = alpha_{i_k}          for k <= |class 1|  (class-1 simples),
      rho_k = -gamma(alpha_{i_k})  for |class 1| < k <= n  (class-2 simples),
      rho_k = gamma(rho_{k-n})     for n < k <= n*h/2,

  which enumerates every positive root exactly once.  Reflection number k
  (1-based) is the reflection in rho_k, and all sequence/basis orderings
  downstream refer to this order.
"""

from __future__ import annotations

import re
from collections import namedtuple
from math import factorial

COXETER_NUMBERS = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n,
    "D": lambda n: 2 * n - 2,
    "E": {6: 12, 7: 18, 8: 30}.get,
    "F": {4: 12}.get,
    "H": {3: 10, 4: 30}.get,
}

GROUP_ORDERS = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2 ** n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "E": {6: 51840, 7: 2903040, 8: 696729600}.get,
    "F": {4: 1152}.get,
    "H": {3: 120, 4: 14400}.get,
}


class TypeParseError(ValueError):
    """Raised for unparseable or unsupported Coxeter type strings."""


class CoxeterType(namedtuple("CoxeterType", "family rank dihedral_order",
                             defaults=(0,))):
    """A parsed irreducible finite Coxeter type, e.g. A3 or I2(7):
    family letter, rank, and ``dihedral_order`` m for I2(m), else 0."""

    __slots__ = ()

    @staticmethod
    def parse(text: str) -> "CoxeterType":
        text = text.strip()
        m = re.fullmatch(r"I2\((\d+)\)", text)
        if m:
            order = int(m.group(1))
            if order < 3:
                raise TypeParseError(
                    f"I2({order}) is not supported: need m >= 3 "
                    "(I2(2) is reducible)")
            return CoxeterType("I", 2, order)
        m = re.fullmatch(r"([ABDEFH])(\d+)", text)
        if not m:
            raise TypeParseError(
                f"cannot parse Coxeter type {text!r}; expected one of "
                "A<n>, B<n>, D<n>, E6|E7|E8, F4, H3|H4, I2(m)")
        family, rank = m.group(1), int(m.group(2))
        limits = {"A": (1, None), "B": (2, None), "D": (3, None),
                  "E": (6, 8), "F": (4, 4), "H": (3, 4)}
        lo, hi = limits[family]
        if rank < lo or (hi is not None and rank > hi):
            extra = ""
            if family == "D" and rank == 2:
                extra = " (D2 is reducible)"
            raise TypeParseError(
                f"{family}{rank} is not a supported irreducible type{extra}")
        return CoxeterType(family, rank)

    @property
    def name(self) -> str:
        if self.family == "I":
            return f"I2({self.dihedral_order})"
        return f"{self.family}{self.rank}"

    @property
    def is_dihedral(self) -> bool:
        return self.family == "I"

    @property
    def coxeter_number(self) -> int:
        if self.family == "I":
            return self.dihedral_order
        return COXETER_NUMBERS[self.family](self.rank)

    @property
    def num_reflections(self) -> int:
        return self.rank * self.coxeter_number // 2

    @property
    def group_order(self) -> int:
        if self.family == "I":
            return 2 * self.dihedral_order
        return GROUP_ORDERS[self.family](self.rank)

    def __str__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# diagrams and Cartan matrices


def _diagram(ct: CoxeterType):
    """Bonds (i, j, m) between 0-based nodes; on a 4-bond node i is long."""
    n = ct.rank
    path = [(i, i + 1, 3) for i in range(n - 1)]
    if ct.family == "A":
        return path
    if ct.family == "B":
        return path[:-1] + [(n - 2, n - 1, 4)]
    if ct.family == "D":
        return path[:-1] + [(n - 3, n - 1, 3)]
    if ct.family == "E":
        bonds = [(0, 2, 3), (1, 3, 3)] + [(i, i + 1, 3) for i in range(2, 7)]
        return [(i, j, m) for i, j, m in bonds if j < n]
    if ct.family == "F":
        return [(0, 1, 3), (1, 2, 4), (2, 3, 3)]
    return [(0, 1, 5)] + path[1:]  # H3, H4


def _cartan(n: int, bonds):
    """C[i][j] = <alpha_i, alpha_j^vee> as pairs (a, b) = a + b phi."""
    off = {3: ((-1, 0), (-1, 0)), 4: ((-2, 0), (-1, 0)),
           5: ((0, -1), (0, -1))}
    cartan = [[(2, 0) if i == j else (0, 0) for j in range(n)]
              for i in range(n)]
    for i, j, m in bonds:
        cartan[i][j], cartan[j][i] = off[m]
    return cartan


def _nonnegative(a: int, b: int) -> bool:
    """a + b phi >= 0, exactly: 2(a + b phi) = (2a + b) + b sqrt 5."""
    u = 2 * a + b
    if u >= 0 and b >= 0:
        return True
    if u <= 0 and b <= 0:
        return False
    return (u * u > 5 * b * b) == (u > 0)


# ---------------------------------------------------------------------------
# the root system proper


class RootSystem:
    """Roots, simple-reflection permutations and the fixed reflection order
    for one diagram type (everything except the dihedral family).

    Positions 0..N-1 are rho_1..rho_N, position N + k is -rho_{k+1}, and
    ``roots[j]`` is the root at position j.
    """

    def __init__(self, ctype: CoxeterType):
        if ctype.is_dihedral:
            raise ValueError("dihedral types have no diagram realization")
        self.ctype = ctype
        n = ctype.rank
        total = ctype.num_reflections
        bonds = _diagram(ctype)
        self.cartan = _cartan(n, bonds)
        simple_roots = [tuple(int(i == j) for j in range(2 * n))
                        for i in range(n)]
        images = self._close(simple_roots, 2 * total)
        positives = {r for r in images[0]
                     if all(_nonnegative(r[i], r[n + i]) for i in range(n))}
        if len(images[0]) != 2 * total or len(positives) != total:
            raise RuntimeError(
                f"{ctype}: {len(images[0])} roots, {len(positives)} "
                f"positive, expected {2 * total} and {total}")

        self.color_classes = first, second = _bipartition(n, bonds)

        def gamma(root):
            for i in second + first:
                root = images[i][root]
            return root

        rho = [simple_roots[i] for i in first]
        rho += [tuple(-x for x in gamma(simple_roots[i])) for i in second]
        while len(rho) < total:
            rho.append(gamma(rho[-n]))
        if len(set(rho)) != total or not positives.issuperset(rho):
            raise RuntimeError(
                f"{ctype}: the root recurrence does not list each positive "
                "root once")

        roots = rho + [tuple(-x for x in r) for r in rho]
        where = {r: k for k, r in enumerate(roots)}
        self.simple_permutations = tuple(
            tuple(where[image[r]] for r in roots) for image in images)
        self.simple_positions = tuple(where[r] for r in simple_roots)
        self.roots = tuple(roots)

    def _close(self, simple_roots, limit: int):
        """Close the simple roots under the simple reflections; returns
        ``images`` with ``images[j][r]`` = s_j(r) for every root r.  Stops
        with RuntimeError past `limit` roots (a diagram of infinite type)."""
        n = len(simple_roots)
        columns = [[(i,) + self.cartan[i][j] for i in range(n)
                    if self.cartan[i][j] != (0, 0)] for j in range(n)]
        images = tuple({} for _ in range(n))
        seen = set(simple_roots)
        frontier = list(simple_roots)
        while frontier:
            new = []
            for root in frontier:
                for j, column in enumerate(columns):
                    ka = kb = 0
                    for i, p, q in column:
                        a, b = root[i], root[n + i]
                        ka += a * p + b * q
                        kb += a * q + b * (p + q)
                    img = list(root)
                    img[j] -= ka
                    img[n + j] -= kb
                    img = images[j][root] = tuple(img)
                    if img not in seen:
                        seen.add(img)
                        new.append(img)
            if len(seen) > limit:
                raise RuntimeError(
                    f"{self.ctype}: more than {limit} roots; the diagram "
                    "is not of finite type")
            frontier = new
        return images


def _bipartition(n: int, bonds):
    """Two-color the diagram by BFS; the class of node 0 comes first."""
    neighbors = {i: [] for i in range(n)}
    for i, j, _ in bonds:
        neighbors[i].append(j)
        neighbors[j].append(i)
    color = {0: 0}
    queue = [0]
    while queue:
        i = queue.pop(0)
        for j in neighbors[i]:
            if j not in color:
                color[j] = 1 - color[i]
                queue.append(j)
    if len(color) != n:
        raise RuntimeError("the diagram is not connected")
    return tuple(tuple(i for i in range(n) if color[i] == c) for c in (0, 1))
