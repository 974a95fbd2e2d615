"""The invariant suite's checks called directly."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

# A fresh A3 algebra whose alternating chain of one non-decreasing
# factorization of gamma is replaced by that single key: no basis chain
# has it as its maximal key, so the coordinate solve must refuse it and
# the span check must fail.
SPAN_SCRIPT = textwrap.dedent("""\
    import random
    import sys
    from ncphom import ChainAlgebra, CoxeterGroup, PartitionLattice
    from ncphom.properties import check_span_equality
    print("optimize", sys.flags.optimize)
    lat = PartitionLattice(CoxeterGroup.from_name("A3"))
    algebra = ChainAlgebra(lat)
    bad = next(s for s in lat.reduced_factorizations(lat.gamma_id)
               if any(a < b for a, b in zip(s, s[1:])))
    original = algebra.alternating_chain
    algebra.alternating_chain = lambda seq: (
        {bad: 1} if tuple(seq) == bad else original(seq))
    try:
        check_span_equality(algebra, random.Random(0))
    except AssertionError:
        print("span check raised AssertionError")
    try:
        algebra.chain_coords(bad)
    except ValueError as err:
        print("chain_coords raised:", str(err).split(":")[0])
""")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_span_check_fails_on_chain_outside_the_span(flags):
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, *flags, "-c", SPAN_SCRIPT],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        f"optimize {len(flags)}",
        "span check raised AssertionError",
        "chain_coords raised: chain not in span",
    ]


# The same, but the replaced chain is the true alternating chain plus the
# key (0, 0, 0), below its maximal key and never a leading key: its
# maximal key is leading, so only a route that reads every key sees that
# the chain leaves the span.
LEADING_SPAN_SCRIPT = textwrap.dedent("""\
    import random
    import sys
    from ncphom import ChainAlgebra, CoxeterGroup, PartitionLattice
    from ncphom.properties import check_span_equality
    print("optimize", sys.flags.optimize)
    lat = PartitionLattice(CoxeterGroup.from_name("A3"))
    algebra = ChainAlgebra(lat)
    bad = next(s for s in lat.reduced_factorizations(lat.gamma_id)
               if any(a < b for a, b in zip(s, s[1:])))
    original = algebra.alternating_chain
    algebra.alternating_chain = lambda seq: (
        {**original(bad), (0, 0, 0): 1} if tuple(seq) == bad
        else original(seq))
    print("maximal key leading",
          max(algebra.alternating_chain(bad))
          in algebra.full_basis(3).max_key_to_pos)
    try:
        check_span_equality(algebra, random.Random(0))
    except AssertionError:
        print("span check raised AssertionError")
""")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_span_check_fails_on_a_leading_maximal_key_with_an_extra_key(flags):
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, *flags, "-c",
                          LEADING_SPAN_SCRIPT],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        f"optimize {len(flags)}",
        "maximal key leading True",
        "span check raised AssertionError",
    ]


# A fresh A3 algebra whose interval cycle of one degree-2 cycle basis
# label is doubled, so that expansion's leading coefficient is 2: the
# triangular solve would misread every chain through it, and the
# unitriangular check must fail, with and without -O.
UNITRIANGULAR_SCRIPT = textwrap.dedent("""\
    import random
    import sys
    from ncphom import ChainAlgebra, CoxeterGroup, PartitionLattice
    from ncphom.properties import check_unitriangular
    print("optimize", sys.flags.optimize)
    algebra = ChainAlgebra(PartitionLattice(CoxeterGroup.from_name("A3")))
    bad = algebra.labels(2, True)[1]
    original = algebra.interval_cycle
    algebra.interval_cycle = lambda seq: (
        {key: 2 * c for key, c in original(seq).items()}
        if tuple(seq) == bad else original(seq))
    try:
        check_unitriangular(algebra, random.Random(0))
    except AssertionError as err:
        print("unitriangular check raised:", err.args[0][0])
""")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_unitriangular_check_covers_the_cycle_bases(flags):
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, *flags, "-c",
                          UNITRIANGULAR_SCRIPT],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        f"optimize {len(flags)}",
        "unitriangular check raised: leading coefficient",
    ]
