"""The benchmark's workloads: fixed lists of (type, space) homology tables.

The seed only permutes the order in which a pass computes its tables; the
set of tables, and so every count the traced run reports, never depends on
it.  The program only ever receives type and space names.
"""

from __future__ import annotations

import random

# Non-integer realizations (GoldenNumber for H3, Fraction for F4): scalar
# arithmetic, group multiplication and the lattice closure dominate, Smith
# normal form is negligible.  One table per type, so nothing can be reused.
FP_EXCEPTIONAL = (("H3", "FP"), ("F4", "FP"))

# Every space, so group enumeration and group-tensored assembly run, and
# types repeat across spaces, so a cross-table cache would show here.
ALL_SPACES = tuple(
    [(t, s) for t in ("A3", "B3") for s in ("FP", "FQ0", "FQ", "M", "MW")]
    + [(t, s) for t in ("A4", "H3") for s in ("FP", "MW")])

# ``ncphom verify tables`` over many small tables, one invocation per space:
# per-table fixed cost, the dense Smith form path, refdata and the CLI.
VERIFY_BATCH = {
    "FP": ("A2", "A3", "A4", "A5", "B2", "B3", "B4", "D3", "D4")
          + tuple(f"I2({m})" for m in range(3, 13)),
    "FQ0": ("A2", "A3", "B3", "D3")
           + tuple(f"I2({m})" for m in range(3, 11)),
    "FQ": ("A2", "A3", "I2(5)"),
}

TABLE_WORKLOADS = {
    "fp-exceptional": FP_EXCEPTIONAL,
    "all-spaces": ALL_SPACES,
}
WORKLOADS = tuple(TABLE_WORKLOADS) + ("verify-batch",)


def tables(workload: str) -> list:
    """Every (type, space) table one pass of the workload computes."""
    if workload == "verify-batch":
        return [(t, space) for space, types in VERIFY_BATCH.items()
                for t in types]
    return list(TABLE_WORKLOADS[workload])


def table_order(workload: str, seed: int) -> list:
    """The tables of a table workload in the order the seed gives."""
    order = list(TABLE_WORKLOADS[workload])
    random.Random(seed).shuffle(order)
    return order


def verify_argvs(seed: int) -> list:
    """Argument lists for ``ncphom.cli.main``, one per space, with the
    invocations and the types inside each shuffled by the seed."""
    rng = random.Random(seed)
    spaces = list(VERIFY_BATCH)
    rng.shuffle(spaces)
    argvs = []
    for space in spaces:
        types = list(VERIFY_BATCH[space])
        rng.shuffle(types)
        argv = ["verify", "tables", "--space", space]
        for t in types:
            argv += ["--type", t]
        argvs.append(argv)
    return argvs
