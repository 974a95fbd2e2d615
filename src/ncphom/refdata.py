"""Bundled reference tables of integral homology, with lookup.

Rows are read from the JSON files in the ``data`` directory beside this
module, once per process.  Each row carries a type name, a space token,
one homology group per topological degree (``None`` where the value is
not known), an Euler characteristic, a source tag naming the bundled
table, and a status:

- ``ok``            every value given is trusted (A6 and B5 FQ0 leave
                    their upper degrees ``None``),
- ``inconsistent``  the printed groups and Euler characteristic cannot
                    both be right; nothing from the row is asserted,
- ``unsupported``   a type this package does not construct (reducible).

Dihedral rows for any order are synthesized from closed forms instead of
being stored per order.  An FQ row is its FQ0 row doubled degreewise
(FQ is two copies of FQ0), whatever that row holds: the status and the
``None`` gaps carry over, and the reader of a row decides, through
``ReferenceRow.complete``, whether it can be checked.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple

from .homology import HomologyGroup
from .rootsys import CoxeterType, TypeParseError

DATA_FILES = (
    "fp_exceptional", "fq0_exceptional",
    "fp_linear_a", "fp_linear_b", "fp_linear_d",
    "fq0_linear_a", "fq0_linear_b", "fq0_linear_d",
)


class ReferenceRow(namedtuple(
        "ReferenceRow", "type_name space groups euler source status",
        defaults=("ok",))):
    """One reference table; ``groups`` holds a HomologyGroup, or None,
    per topological degree."""

    __slots__ = ()

    @property
    def complete(self) -> bool:
        return self.status == "ok" and all(g is not None for g in self.groups)

    def doubled(self) -> "ReferenceRow":
        return ReferenceRow(
            self.type_name, "FQ",
            tuple(None if g is None else g.doubled() for g in self.groups),
            2 * self.euler, self.source + "#doubled", self.status)


def _decode(row: dict) -> ReferenceRow:
    groups = tuple(
        None if g is None else HomologyGroup.from_dict(g)
        for g in row["groups"])
    return ReferenceRow(row["type"], row["space"], groups, row["euler"],
                        row["source"], row.get("status", "ok"))


_cache: tuple | None = None


def load_rows() -> tuple:
    global _cache
    if _cache is None:
        rows = []
        here = os.path.dirname(__file__)
        for stem in DATA_FILES:
            path = os.path.join(here, "data", f"{stem}.json")
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            rows.extend(_decode(r) for r in payload["rows"])
        _cache = tuple(rows)
    return _cache


def _dihedral_row(m: int, space: str) -> ReferenceRow | None:
    source = "closed-form/dihedral"
    if space == "FP":
        return ReferenceRow(
            f"I2({m})", "FP",
            (HomologyGroup(1), HomologyGroup(m - 1)), 2 - m, source)
    if space == "FQ0":
        return ReferenceRow(
            f"I2({m})", "FQ0",
            (HomologyGroup(1), HomologyGroup((m - 1) ** 2)),
            m * (2 - m), source)
    return None


def lookup(type_name: str, space: str) -> ReferenceRow | None:
    """The reference row for a type and space, or None.

    Dihedral FP/FQ0 rows come from closed forms, FQ rows from doubling
    the FQ0 row, complete or not.  Names of stored but unsupported types
    (like D2) resolve to their rows even though they cannot be
    constructed.
    """
    try:
        ctype = CoxeterType.parse(type_name)
    except TypeParseError:
        ctype = None
    name = ctype.name if ctype is not None else type_name.strip()
    if space == "FQ":
        base = lookup(type_name, "FQ0")
        return None if base is None else base.doubled()
    if ctype is not None and ctype.is_dihedral:
        return _dihedral_row(ctype.dihedral_order, space)
    for row in load_rows():
        if row.type_name == name and row.space == space:
            return row
    return None


def _rank_of(type_name: str) -> int:
    try:
        return CoxeterType.parse(type_name).rank
    except TypeParseError:
        digits = "".join(ch for ch in type_name if ch.isdigit())
        return int(digits) if digits else 0


def all_rows(space: str | None = None,
             max_rank: int | None = None) -> list:
    """Stored rows filtered by space and rank, skipping nothing else.
    ``FQ`` rows are not stored: for ``FQ`` the stored ``FQ0`` rows come
    doubled, in their order, as ``lookup`` gives them."""
    if space == "FQ":
        return [row.doubled() for row in all_rows("FQ0", max_rank)]
    out = []
    for row in load_rows():
        if space is not None and row.space != space:
            continue
        if max_rank is not None and _rank_of(row.type_name) > max_rank:
            continue
        out.append(row)
    return out
