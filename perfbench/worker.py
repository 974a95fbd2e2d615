"""One pass of one workload, in a fresh interpreter.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and ``NCPHOM_WORKERS=1``.  Prints one JSON object: the pass's wall time,
one entry per table (time to its answer and what the program returned),
the process's peak resident memory and, when traced, the trace report.
Times are in reference seconds (``calibrate.py``), with the measured
seconds alongside as ``raw_*``.  Checking the answers against the oracle
is left to the caller, so this process touches nothing the program would
not.

    python3 perfbench/worker.py --workload all-spaces --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import ncphom.cli
import ncphom.complexes
import ncphom.homology
from ncphom.chain_algebra import ChainAlgebra
from ncphom.coxgroup import CoxeterGroup
from ncphom.lattice import PartitionLattice

import calibrate
import workloads
from tracing import LAYER_METRICS, Tracer


def _one_table(type_name: str, space: str):
    """Compute one table cold: group, lattice and algebra are rebuilt."""
    group = CoxeterGroup.from_name(type_name)
    lat = PartitionLattice(group)
    algebra = ChainAlgebra(lat)
    complex_ = ncphom.complexes.build_complex(algebra, space)
    return complex_, ncphom.homology.homology_of(complex_)


def _scaled(seconds: float, samples) -> float:
    """Measured seconds in reference seconds, by the two latest calibration
    samples, taken right before and after that work."""
    return calibrate.to_reference(seconds, (samples[-2] + samples[-1]) / 2)


def run_tables(order, calibrator, tracer=None) -> dict:
    """Compute the (type, space) tables in order; time each one, with a
    calibration sample before the first table and after each one."""
    entries = []
    samples = [calibrator.sample()]
    clock = time.perf_counter
    for type_name, space in order:
        entry = {"type": type_name, "space": space}
        t0 = clock()
        try:
            complex_, groups = _one_table(type_name, space)
        except Exception:
            entry["error"] = traceback.format_exc(limit=3)
        entry["raw_seconds"] = clock() - t0
        if tracer is not None:
            tracer.end_table()
        samples.append(calibrator.sample())
        entry["seconds"] = _scaled(entry["raw_seconds"], samples)
        if "error" not in entry:
            entry["groups"] = [[g.free_rank, list(g.torsion)] for g in groups]
            entry["euler"] = ncphom.homology.euler_characteristic(complex_)
            del complex_, groups
        entries.append(entry)
    return {"wall_s": sum(e["seconds"] for e in entries),
            "raw_wall_s": sum(e["raw_seconds"] for e in entries),
            "tables": entries, "calibration_s": samples}


class _LineClock(io.TextIOBase):
    """A stdout stand-in that stamps each complete line as it is written."""

    def __init__(self, on_line):
        self._on_line = on_line
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self._on_line(line)
        return len(text)


def run_verify(argvs, calibrator, tracer=None) -> dict:
    """Run ``ncphom.cli.main`` in-process on each argument list.

    A table's time runs from the previous table line (or the start of the
    invocation) to the line that reports it, as a user watching the output
    would see it.  A calibration sample runs before the first invocation
    and after each one, and scales that invocation's times.  An invocation
    that raises leaves its remaining tables unanswered.
    """
    entries = []
    clock = time.perf_counter
    mark = [0.0]

    def on_line(line):
        now = clock()
        status, _, rest = line.partition(" ")
        if status not in ("PASS", "FAIL", "SKIP"):
            return
        label, _, detail = rest.partition(": ")
        _, type_name, space = label.split(" ")
        entries.append({"type": type_name, "space": space,
                        "raw_seconds": now - mark[0], "status": status,
                        "text": detail})
        if tracer is not None:
            tracer.end_table()
        mark[0] = clock()

    sink = _LineClock(on_line)
    errors = []
    samples = [calibrator.sample()]
    wall = raw_wall = 0.0
    for argv in argvs:
        first = len(entries)
        start = mark[0] = clock()
        try:
            with contextlib.redirect_stdout(sink):
                ncphom.cli.main(list(argv))
        except Exception:
            errors.append(traceback.format_exc(limit=3))
        seconds = clock() - start
        samples.append(calibrator.sample())
        raw_wall += seconds
        wall += _scaled(seconds, samples)
        for entry in entries[first:]:
            entry["seconds"] = _scaled(entry["raw_seconds"], samples)
    return {"wall_s": wall, "raw_wall_s": raw_wall, "tables": entries,
            "errors": errors, "calibration_s": samples}


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    """One pass.  Times are in reference seconds, each scaled by the
    calibration samples around it; layer times, which span the whole pass,
    by the mean of all its samples.  Measured seconds stay alongside as
    ``raw_*``."""
    with calibrate.Calibrator() as calibrator:
        tracer = Tracer().install() if trace else None
        try:
            if workload == "verify-batch":
                result = run_verify(workloads.verify_argvs(seed), calibrator,
                                    tracer)
            else:
                result = run_tables(workloads.table_order(workload, seed),
                                    calibrator, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    if tracer is not None:
        speed = statistics.mean(result["calibration_s"])
        report = tracer.report()
        layer_s = [value for name, value in report["metrics"].items()
                   if LAYER_METRICS[name] == "s"]
        # time inside the tables that no ``_s`` metric holds: spans without
        # a metric of their own (``homology_of``) and work outside every span
        report["unattributed_s"] = calibrate.to_reference(
            result["raw_wall_s"] - sum(layer_s), speed)
        report["metrics"] = {
            name: calibrate.to_reference(value, speed)
            if LAYER_METRICS[name] == "s" else value
            for name, value in report["metrics"].items()}
        result["trace"] = report
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, bool(args.trace))
    result["ncphom_file"] = ncphom.__file__
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
