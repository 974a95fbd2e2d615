"""Root systems, reflection orderings, and bipartite Coxeter elements.

A finite real reflection group is realized by the reflection matrices of its
positive roots in a fixed ambient space.  The simple roots follow the standard
coordinate realizations (documented in the README table); the icosahedral
types derive their simple roots at build time from explicit unit-root lists.

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

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from .scalars import (GOLDEN_RATIO, GoldenNumber, dot, identity_matrix,
                      mat_mul, mat_vec, solve_linear)

COXETER_NUMBERS = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n,
    "D": lambda n: 2 * n - 2,
    "E": {6: 12, 7: 18, 8: 30}.get,
    "F": {4: 12}.get,
    "H": {3: 10, 4: 30}.get,
}

GROUP_ORDERS = {
    "A": lambda n: _factorial(n + 1),
    "B": lambda n: 2 ** n * _factorial(n),
    "D": lambda n: 2 ** (n - 1) * _factorial(n),
    "E": {6: 51840, 7: 2903040, 8: 696729600}.get,
    "F": {4: 1152}.get,
    "H": {3: 120, 4: 14400}.get,
}


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


class TypeParseError(ValueError):
    """Raised for unparseable or unsupported Coxeter type strings."""


@dataclass(frozen=True)
class CoxeterType:
    """A parsed irreducible finite Coxeter type, e.g. A3 or I2(7)."""

    family: str
    rank: int
    dihedral_order: int = 0  # m for I2(m), else 0

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
# simple root realizations


def _simple_roots_crystallographic(ct: CoxeterType):
    n = ct.rank
    F = Fraction
    if ct.family == "A":
        dim = n + 1
        return [tuple(F(1) if j == i else F(-1) if j == i + 1 else F(0)
                      for j in range(dim)) for i in range(n)]
    if ct.family == "B":
        simples = [tuple(F(1) if j == i else F(-1) if j == i + 1 else F(0)
                         for j in range(n)) for i in range(n - 1)]
        simples.append(tuple(F(1) if j == n - 1 else F(0) for j in range(n)))
        return simples
    if ct.family == "D":
        simples = [tuple(F(1) if j == i else F(-1) if j == i + 1 else F(0)
                         for j in range(n)) for i in range(n - 1)]
        simples.append(tuple(F(1) if j >= n - 2 else F(0) for j in range(n)))
        return simples
    if ct.family == "E":
        half = F(1, 2)
        e8 = [tuple([half, -half, -half, -half, -half, -half, -half, half]),
              tuple([F(1), F(1)] + [F(0)] * 6)]
        for i in range(3, 9):
            e8.append(tuple(F(1) if j == i - 2 else F(-1) if j == i - 3
                            else F(0) for j in range(8)))
        return e8[:n]
    if ct.family == "F":
        half = F(1, 2)
        return [
            (F(0), F(1), F(-1), F(0)),
            (F(0), F(0), F(1), F(-1)),
            (F(0), F(0), F(0), F(1)),
            (half, -half, -half, -half),
        ]
    raise AssertionError(ct.family)


def _icosahedral_roots(rank: int):
    """The full unit root lists for the icosahedral types."""
    G = GoldenNumber
    one, zero = G(1), G(0)
    half = G(Fraction(1, 2))
    phi = GOLDEN_RATIO
    roots = set()
    if rank == 3:
        # cyclic permutations of (+-1, 0, 0) and of (1/2)(+-1, +-phi, +-(phi-1))
        base = [one, zero, zero]
        for shift in range(3):
            vec = base[shift:] + base[:shift]
            roots.add(tuple(vec))
            roots.add(tuple(-x for x in vec))
        comps = [half, half * phi, half * (phi - 1)]
        for shift in range(3):
            cyc = comps[shift:] + comps[:shift]
            for signs in itertools.product((1, -1), repeat=3):
                roots.add(tuple(x if s > 0 else -x
                                for x, s in zip(cyc, signs)))
        assert len(roots) == 30
        return roots
    # rank 4: unit icosians
    for i in range(4):
        for s in (one, -one):
            roots.add(tuple(s if j == i else zero for j in range(4)))
    for signs in itertools.product((1, -1), repeat=4):
        roots.add(tuple(half if s > 0 else -half for s in signs))
    comps = [zero, half, half * phi, half * (phi - 1)]
    for perm in itertools.permutations(range(4)):
        if _permutation_sign(perm) != 1:
            continue
        vec = [comps[p] for p in perm]
        nonzero = [i for i in range(4) if vec[i] != 0]
        for signs in itertools.product((1, -1), repeat=3):
            out = list(vec)
            for pos, s in zip(nonzero, signs):
                if s < 0:
                    out[pos] = -out[pos]
            roots.add(tuple(out))
    assert len(roots) == 120
    return roots


def _permutation_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _lex_positive(vec) -> bool:
    for x in vec:
        if x != 0:
            return x > 0
    return False


def _simple_roots_icosahedral(rank: int):
    """Derive simple roots: lex-positive indecomposables, path-ordered with
    the 5-bond endpoint first."""
    roots = _icosahedral_roots(rank)
    positives = [r for r in roots if _lex_positive(r)]
    assert 2 * len(positives) == len(roots)
    # a positive root is simple iff its reflection permutes the remaining
    # positive roots (no additive criterion applies here: noncrystallographic
    # positive systems are not closed under root addition)
    identity = identity_matrix(len(positives[0]), GoldenNumber(1))
    simples = []
    for r in positives:
        mat = reflection_matrix(r, identity)
        if all(other == r or _lex_positive(mat_vec(mat, other))
               for other in positives):
            simples.append(r)
    assert len(simples) == rank
    # bond orders from inner products of unit roots: (a_i, a_j) = -cos(pi/m)
    minus_cos5 = -(GOLDEN_RATIO / 2)
    minus_cos3 = GoldenNumber(Fraction(-1, 2))
    bonds = {}
    for i in range(rank):
        for j in range(i + 1, rank):
            p = dot(simples[i], simples[j])
            if p == 0:
                continue
            if p == minus_cos5:
                bonds[(i, j)] = 5
            elif p == minus_cos3:
                bonds[(i, j)] = 3
            else:
                raise AssertionError(f"unexpected simple-root angle {p!r}")
    adjacency = {i: [] for i in range(rank)}
    for (i, j), m in bonds.items():
        adjacency[i].append((j, m))
        adjacency[j].append((i, m))
    endpoints = [i for i in range(rank) if len(adjacency[i]) == 1]
    start = next(i for i in endpoints if adjacency[i][0][1] == 5)
    ordered = [start]
    prev = None
    while len(ordered) < rank:
        nxt = next(j for j, _ in adjacency[ordered[-1]] if j != prev)
        prev = ordered[-1]
        ordered.append(nxt)
    chain = [simples[i] for i in ordered]
    expected_bonds = [5] + [3] * (rank - 2)
    got = [bonds[tuple(sorted((ordered[k], ordered[k + 1])))]
           for k in range(rank - 1)]
    assert got == expected_bonds, got
    return chain


# ---------------------------------------------------------------------------
# the root system proper


class RootSystem:
    """Positive roots, reflection matrices, and the fixed reflection order
    for one matrix-realized type (everything except the dihedral family).
    """

    def __init__(self, ctype: CoxeterType):
        if ctype.is_dihedral:
            raise ValueError("dihedral types have no matrix realization")
        self.ctype = ctype
        n = ctype.rank
        if ctype.family == "H":
            simples = _simple_roots_icosahedral(n)
            one = GoldenNumber(1)
        else:
            simples = _simple_roots_crystallographic(ctype)
            one = Fraction(1)
        self.one = one
        self.dim = len(simples[0])
        self.simple_roots = tuple(simples)
        self.identity = identity_matrix(self.dim, one)
        self.simple_matrices = tuple(reflection_matrix(r, self.identity)
                                     for r in simples)

        all_roots = self._generate_roots()
        gram = tuple(tuple(dot(a, b) for b in simples) for a in simples)
        coordinates = {}   # positive root -> simple-root coordinates
        for r in all_roots:
            coeffs = solve_linear(gram, tuple(dot(r, a) for a in simples))
            if all(c >= 0 for c in coeffs):
                coordinates[r] = coeffs
        positives = list(coordinates)
        assert 2 * len(positives) == len(all_roots)
        assert len(positives) == ctype.num_reflections, (
            len(positives), ctype.num_reflections)
        self._positive_set = set(positives)

        self.color_classes = self._bipartition()
        gamma = self.identity
        for cls in self.color_classes:
            for i in cls:
                gamma = mat_mul(gamma, self.simple_matrices[i])
        # matrices act on column vectors, so the product above applies the
        # second color class first
        self.coxeter_matrix_form = gamma
        self.coxeter_order = self._matrix_order(gamma)
        assert self.coxeter_order == ctype.coxeter_number, (
            self.coxeter_order, ctype.coxeter_number)

        self.ordered_roots = self._order_roots(gamma)
        self.reflection_matrices = tuple(
            reflection_matrix(r, self.identity) for r in self.ordered_roots)
        self.root_coordinates = tuple(coordinates[r]
                                      for r in self.ordered_roots)
        self._root_to_position = {r: k for k, r in
                                  enumerate(self.ordered_roots)}

    # -- construction helpers ------------------------------------------------

    def _generate_roots(self):
        """Close the simple roots under the simple reflections, recording
        in ``simple_images[i][r]`` the image of every root r under s_i."""
        self.simple_images = tuple({} for _ in self.simple_matrices)
        roots = set(self.simple_roots)
        frontier = list(self.simple_roots)
        while frontier:
            new = []
            for r in frontier:
                for m, images in zip(self.simple_matrices,
                                     self.simple_images):
                    img = images[r] = mat_vec(m, r)
                    if img not in roots:
                        roots.add(img)
                        new.append(img)
            frontier = new
        return roots

    def _bipartition(self):
        """Two-color the diagram by BFS; the class of node 0 comes first."""
        n = self.ctype.rank
        neighbors = {i: [] for i in range(n)}
        for i in range(n):
            for j in range(i + 1, n):
                if dot(self.simple_roots[i], self.simple_roots[j]) != 0:
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
        assert len(color) == n, "diagram must be connected"
        first = tuple(sorted(i for i in range(n) if color[i] == 0))
        second = tuple(sorted(i for i in range(n) if color[i] == 1))
        return (first, second)

    def _matrix_order(self, m) -> int:
        power = m
        order = 1
        while power != self.identity:
            power = mat_mul(power, m)
            order += 1
            assert order <= 64, "runaway matrix order"
        return order

    def _order_roots(self, gamma):
        """The root recurrence; enumerates each positive root exactly once."""
        n = self.ctype.rank
        first, second = self.color_classes
        rho = [self.simple_roots[i] for i in first]
        for i in second:
            img = mat_vec(gamma, self.simple_roots[i])
            rho.append(tuple(-x for x in img))
        assert len(rho) == n
        total = self.ctype.num_reflections
        while len(rho) < total:
            rho.append(mat_vec(gamma, rho[-n]))
        for r in rho:
            assert r in self._positive_set, r
        assert len(set(rho)) == total
        return tuple(rho)

    # -- public surface ------------------------------------------------------

    def conjugate_position(self, i: int, j: int) -> int:
        """0-based position of t_i conjugated by t_j (both 0-based)."""
        mj = self.reflection_matrices[j]
        root = mat_vec(mj, self.ordered_roots[i])
        pos = self._root_to_position.get(root)
        if pos is None:
            pos = self._root_to_position[tuple(-x for x in root)]
        return pos


def reflection_matrix(root, identity):
    """The ambient matrix of the reflection in `root`."""
    norm = dot(root, root)
    dim = len(root)
    return tuple(tuple(identity[i][j] - 2 * root[i] * root[j] / norm
                       for j in range(dim))
                 for i in range(dim))
