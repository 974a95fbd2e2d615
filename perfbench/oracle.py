"""Per-table oracle: the expected homology groups and Euler characteristic.

- FP, FQ0, FQ: the bundled reference row from ``ncphom.refdata.lookup``.
- M: no torsion, Betti numbers the coefficients of prod(1 + e q) over the
  exponents e stored in ``oracle.json``.
- MW: rows pinned in ``oracle.json``.

Groups are compared as (free rank, torsion tuple) pairs, so the oracle does
not rely on the program's own equality.
"""

from __future__ import annotations

import json
from pathlib import Path

from ncphom.refdata import lookup

_DATA = json.loads((Path(__file__).parent / "oracle.json").read_text())


class NoOracle(LookupError):
    """Raised for a table the oracle cannot answer."""


def pairs_of(groups) -> list:
    """(free rank, torsion tuple) pairs of ``HomologyGroup`` objects."""
    return [(g.free_rank, tuple(g.torsion)) for g in groups]


def _euler(pairs) -> int:
    return sum((-1) ** k * free for k, (free, _) in enumerate(pairs))


def _complement_betti(exponents) -> list:
    coeffs = [1]
    for e in exponents:
        coeffs = [a + e * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def expected(type_name: str, space: str):
    """(pairs, euler) the table must match; raises NoOracle if unknown."""
    if space == "M":
        exponents = _DATA["exponents"].get(type_name)
        if exponents is None:
            raise NoOracle(f"no exponents for {type_name}")
        pairs = [(b, ()) for b in _complement_betti(exponents)]
        return pairs, _euler(pairs)
    if space == "MW":
        row = _DATA["mw_rows"].get(type_name)
        if row is None:
            raise NoOracle(f"no pinned MW row for {type_name}")
        pairs = [(free, tuple(torsion)) for free, torsion in row]
        return pairs, _euler(pairs)
    row = lookup(type_name, space)
    if row is None or not row.complete:
        raise NoOracle(f"no complete reference row for {type_name} {space}")
    return pairs_of(row.groups), row.euler


def check(type_name: str, space: str, pairs, euler: int) -> list:
    """Problems with a computed table, empty when it matches the oracle.

    ``pairs`` holds one (free rank, torsion tuple) per topological degree.
    """
    try:
        want_pairs, want_euler = expected(type_name, space)
    except NoOracle as err:
        return [str(err)]
    problems = []
    got = [(free, tuple(torsion)) for free, torsion in pairs]
    if got != want_pairs:
        problems.append(f"groups {got} expected {want_pairs}")
    if euler != want_euler:
        problems.append(f"euler {euler} expected {want_euler}")
    return problems


def parse_groups(text: str) -> list:
    """Groups from the CLI's text form, e.g. ``H0=Z H1=Z^2+Z_2 H2=0``,
    as (free, torsion) pairs in degree order."""
    pairs = []
    for k, item in enumerate(text.split()):
        label, _, body = item.partition("=")
        if label != f"H{k}":
            raise ValueError(f"unexpected degree label in {item!r}")
        free, torsion = 0, []
        if body != "0":
            for part in body.split("+"):
                if part == "Z":
                    free += 1
                elif part.startswith("Z^"):
                    free += int(part[2:])
                elif part.startswith("Z_"):
                    torsion.append(int(part[2:]))
                else:
                    raise ValueError(f"unexpected summand {part!r}")
        pairs.append((free, tuple(torsion)))
    return pairs


def check_text(type_name: str, space: str, text: str) -> list:
    """``check`` for a table printed by ``ncphom verify tables``; the Euler
    characteristic is the alternating sum of the printed free ranks."""
    try:
        pairs = parse_groups(text)
    except ValueError as err:
        return [str(err)]
    return check(type_name, space, pairs, _euler(pairs))
