"""Bundled reference tables of integral homology, with lookup.

Rows are read once per process from one plain-text table,
``data/reference_rows.txt`` beside this module.  Each row carries a type
name, a space token, one homology group per topological degree
(``None`` where the value is not known), an Euler characteristic, a
source tag naming the bundled table, and a status:

- ``ok``            every value given is trusted (A6 and B5 FQ0 leave
                    their upper degrees ``None``),
- ``inconsistent``  the printed groups and Euler characteristic cannot
                    both be right; nothing from the row is asserted,
- ``unsupported``   a type this package does not construct (reducible).

The table is split into sections.  A line ``[fp_linear_a]`` starts one,
and the rows below it carry the source ``reference-tables/fp_linear_a``.
A row is one line of whitespace-separated fields::

    A5 FP ok 1 | Z 0 Z^2+Z_2 Z^4 Z^2

type, space (``FP`` or ``FQ0``), status and Euler characteristic, then
``|`` and the groups H0, H1, ... in the notation that ``ncphom
homology`` prints (``0``, ``Z``, ``Z^7``, ``Z^2+Z_6``; one spelling per
group, read by ``HomologyGroup.parse``), with ``?`` for a degree that
is not known.  Blank lines and lines starting with ``#`` are skipped.
A malformed line raises ValueError naming its line number.

Dihedral rows for any order are synthesized from closed forms instead of
being stored per order.  An FQ row is its FQ0 row doubled degreewise
(FQ is two copies of FQ0), whatever that row holds: the status and the
``None`` gaps carry over, and the reader of a row decides, through
``ReferenceRow.complete``, whether it can be checked.
"""

from __future__ import annotations

import os
from collections import namedtuple

from .values import CoxeterType, HomologyGroup, TypeParseError

TABLE = "reference_rows.txt"
STORED_SPACES = ("FP", "FQ0")
STATUSES = ("ok", "inconsistent", "unsupported")


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


def _read_rows(lines) -> tuple:
    """The rows of a table given as lines of text (see the module
    docstring)."""
    rows, source = [], None
    groups_of = {"?": None}  # tokens repeat: each is read once
    for number, line in enumerate(lines, 1):
        fields = line.split()
        if not fields or fields[0][0] == "#":
            continue
        try:
            if fields[0][0] == "[":
                section = fields[0][1:-1]
                if len(fields) > 1 or not section or fields[0][-1] != "]":
                    raise ValueError(f"bad section line {line.strip()!r}")
                source = "reference-tables/" + section
                continue
            if source is None:
                raise ValueError("row before the first [section] line")
            if len(fields) < 6 or fields[4] != "|":
                raise ValueError("expected '<type> <space> <status> "
                                 "<euler> | <H0> <H1> ...'")
            type_name, space, status, euler = fields[:4]
            if space not in STORED_SPACES:
                raise ValueError(f"unknown space {space!r}")
            if status not in STATUSES:
                raise ValueError(f"unknown status {status!r}")
            for token in fields[5:]:
                if token not in groups_of:
                    groups_of[token] = HomologyGroup.parse(token)
            groups = tuple(groups_of[token] for token in fields[5:])
            rows.append(ReferenceRow(type_name, space, groups, int(euler),
                                     source, status))
        except ValueError as err:
            raise ValueError(f"{TABLE} line {number}: {err}") from None
    return tuple(rows)


_cache: tuple | None = None


def load_rows() -> tuple:
    global _cache
    if _cache is None:
        path = os.path.join(os.path.dirname(__file__), "data", TABLE)
        with open(path, encoding="utf-8") as handle:
            _cache = _read_rows(handle)
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
