"""The package's value types: Coxeter types and homology groups.

A ``CoxeterType`` names an irreducible finite Coxeter group, and a
``HomologyGroup`` is one integral homology group as a free rank and
invariant factors.  The reference rows are made of them, and so is
every answer, so reading rows loads this module and neither the root
systems nor the Smith forms.  It imports nothing from the package.

Every number of a type comes from one table, ``DEGREES``: the degrees
d_1 <= ... <= d_n of the basic invariants of W, (2, m) for I2(m).  The
Coxeter number h is d_n, the number of reflections N is the sum of the
d_i - 1, and |W| is the product of the d_i.  The ranks that ``parse``
accepts for E, F and H are the ones the table holds.
"""

from __future__ import annotations

import re
from collections import namedtuple
from math import prod

DEGREES = {
    "A": lambda n: tuple(range(2, n + 2)),
    "B": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "D": lambda n: tuple(sorted((*range(2, 2 * n - 1, 2), n))),
    "E": {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18),
          8: (2, 8, 12, 14, 18, 20, 24, 30)}.get,
    "F": {4: (2, 6, 8, 12)}.get,
    "H": {3: (2, 6, 10), 4: (2, 12, 20, 30)}.get,
    "I": lambda m: (2, m),  # keyed by the dihedral order m
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
                extra = " (I2(2) is reducible)" if order == 2 else ""
                raise TypeParseError(
                    f"I2({order}) is not supported: need m >= 3{extra}")
            return CoxeterType("I", 2, order)
        m = re.fullmatch(r"([ABDEFH])(\d+)", text)
        if not m:
            raise TypeParseError(
                f"cannot parse Coxeter type {text!r}; expected one of "
                "A<n>, B<n>, D<n>, E6|E7|E8, F4, H3|H4, I2(m)")
        family, rank = m.group(1), int(m.group(2))
        # E, F and H ranks are looked up; the A, B and D formulas are not
        # called, since a huge rank would build a huge degree tuple.
        if (rank < {"B": 2, "D": 3}.get(family, 1)
                or family in "EFH" and DEGREES[family](rank) is None):
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
    def degrees(self) -> tuple:
        """Degrees of the basic invariants, ascending."""
        return DEGREES[self.family](self.dihedral_order or self.rank)

    @property
    def coxeter_number(self) -> int:
        return max(self.degrees)

    @property
    def num_reflections(self) -> int:
        return sum(d - 1 for d in self.degrees)

    @property
    def group_order(self) -> int:
        return prod(self.degrees)

    def __str__(self) -> str:
        return self.name


class HomologyGroup(namedtuple("HomologyGroup", "free_rank torsion")):
    """One integral homology group: free rank plus invariant-factor
    torsion (each factor > 1, each dividing the next)."""

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple = ()):
        torsion = tuple(torsion)
        if free_rank < 0:
            raise ValueError(f"negative free rank {free_rank}")
        if any(t <= 1 for t in torsion):
            raise ValueError(f"torsion factors must exceed 1: {torsion}")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError(
                    f"torsion factors must divide the next: {torsion}")
        return super().__new__(cls, free_rank, torsion)

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
