"""Homology-table benchmark for ncphom.

    python3 perfbench/run.py --workload fp-exceptional --seed 1 \\
        --seconds 35 --trace 0

Run from the root of a checkout.  One run:

1. runs passes of the workload, each in its own single-threaded
   interpreter (``worker.py``, ``NCPHOM_WORKERS=1``), starting another pass
   only while it is expected to end within ``--seconds``; at least one
   pass always runs;
2. times set-up before each pass: a fresh interpreter that only imports
   ``ncphom`` and loads the bundled reference rows (at least
   ``SETUP_PROBES`` of them, after one warm-up);
3. checks every table of every pass against the oracle (``oracle.py``);
4. prints a summary and, as its last line, one JSON object with the
   end-to-end metrics (``--trace 0``) or the per-layer metrics of traced
   passes (``--trace 1``; untraced passes alternate with them to give the
   tracing overhead).

Times are in reference seconds: measured seconds scaled by calibration
samples taken right before and after the work, in a calibration process of
the benchmark's own (``calibrate.py``), so that the drifting speed of a
shared machine cancels.
They are medians over the run's passes.  The exit code is 0 when every
table matched, 1 when one did not or a pass failed, 2 when the checkout
holds no ncphom sources.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
RUN_LIMIT_S = 170  # a run that hangs is stopped before three minutes

# End-to-end metric -> unit, all lower-is-better.
END_TO_END = {
    "wall_s": "s",
    "slowest_table_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
TRACE_METRICS = {"trace.wall_s": "s", "trace.overhead_s": "s",
                 "trace.unattributed_s": "s"}

SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import ncphom\n"
    "ncphom.load_rows()\n"
    "print(time.perf_counter() - start)\n")


class PassFailed(RuntimeError):
    """A worker or set-up interpreter exited abnormally."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["NCPHOM_WORKERS"] = "1"
    return env


def _python(args, timeout: float) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(),
                          capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise PassFailed(f"{args[0]} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout


def setup_probe(deadline: float, calibrator) -> float:
    """Reference seconds from ``import ncphom`` to rows loaded, in a fresh
    process, between two calibration samples."""
    before = calibrator.sample()
    seconds = float(_python(["-c", SETUP_CODE],
                            deadline - time.monotonic()).strip())
    return calibrate.to_reference(seconds,
                                  (before + calibrator.sample()) / 2)


def run_worker(workload: str, seed: int, trace: bool, deadline: float):
    out = _python([str(HERE / "worker.py"), "--workload", workload,
                   "--seed", str(seed), "--trace", str(int(trace))],
                  deadline - time.monotonic())
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError) as err:
        raise PassFailed(f"worker printed no result: {err}") from err
    if Path(result["ncphom_file"]).resolve().parent != SRC / "ncphom":
        raise PassFailed(f"imported ncphom from {result['ncphom_file']}, "
                         f"not from {SRC}")
    return result


def check_pass(workload: str, result: dict) -> dict:
    """Problems with one pass, by table: wrong, missing or failed."""
    import oracle  # imports ncphom, so only once main has found it

    problems: dict = {}
    for entry in result["tables"]:
        key = (entry["type"], entry["space"])
        if "error" in entry:
            found = [f"raised\n{entry['error']}"]
        elif "status" in entry:
            found = ([] if entry["status"] == "PASS"
                     else [f"cli reported {entry['status']}"])
            found += oracle.check_text(*key, entry["text"])
        else:
            found = oracle.check(*key, entry["groups"], entry["euler"])
        if found:
            problems.setdefault(key, []).extend(found)
    got = [(e["type"], e["space"]) for e in result["tables"]]
    for key in workloads.tables(workload):
        if got.count(key) != 1:
            problems.setdefault(key, []).append(
                f"answered {got.count(key)} times")
    return problems


def run_passes(workload: str, seed: int, seconds: int, trace: bool,
               deadline: float):
    """Passes until the next would end after ``seconds``; with tracing,
    untraced and traced passes alternate and at least one of each runs.

    A set-up probe runs before each pass, so probes and passes sample the
    machine over the same stretch of time; probes are topped up to
    ``SETUP_PROBES`` at the end.
    """
    with calibrate.Calibrator() as calibrator:
        setup_probe(deadline, calibrator)  # warm-up: writes bytecode caches
        plain, traced, durations, setup = [], [], [], []
        start = time.monotonic()
        while True:
            setup.append(setup_probe(deadline, calibrator))
            kind_traced = trace and len(traced) < len(plain)
            t0 = time.monotonic()
            result = run_worker(workload, seed, kind_traced, deadline)
            durations.append(time.monotonic() - t0)
            (traced if kind_traced else plain).append(result)
            if trace and not traced:
                continue
            elapsed = time.monotonic() - start
            if elapsed + statistics.median(durations) > seconds:
                break
        while len(setup) < SETUP_PROBES:
            setup.append(setup_probe(deadline, calibrator))
    return plain, traced, setup


def table_medians(plain: list) -> dict:
    """Each table's time to answer, as a median over the passes."""
    times: dict = {}
    for result in plain:
        for entry in result["tables"]:
            times.setdefault((entry["type"], entry["space"]), []).append(
                entry["seconds"])
    return {key: statistics.median(values) for key, values in times.items()}


def end_to_end(plain: list, setup: list) -> dict:
    return {
        "wall_s": statistics.median([r["wall_s"] for r in plain]),
        "slowest_table_s": max(table_medians(plain).values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
    }


def per_layer(plain: list, traced: list) -> tuple:
    """Per-layer metrics of the traced passes, with trace overhead.

    Counts come from the first traced pass; the second value lists the
    counts that differed between traced passes (expected empty).
    """
    reports = [r["trace"]["metrics"] for r in traced]
    metrics = {}
    unsteady = []
    for name, unit in LAYER_METRICS.items():
        values = [m[name] for m in reports]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
    traced_wall = statistics.median([r["wall_s"] for r in traced])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = \
        traced_wall - statistics.median([r["wall_s"] for r in plain])
    metrics["trace.unattributed_s"] = statistics.median(
        [r["trace"]["unattributed_s"] for r in traced])
    return metrics, unsteady


def write_trace(workload: str, seed: int, traced: list) -> Path:
    """Spans of the last traced pass, as JSON under ``perfbench/traces``."""
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload}.json"
    last = traced[-1]["trace"]
    payload = {"workload": workload, "seed": seed, "spans": last["spans"],
               "root_hot": last["root_hot"], "metrics": last["metrics"]}
    path.write_text(json.dumps(payload))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the homology-table benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit on SIGTERM, so subprocess.run kills and
    # reaps the pass it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "ncphom" / "__init__.py").is_file():
        print(f"error: no ncphom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        plain, traced, setup = run_passes(
            args.workload, args.seed, args.seconds, bool(args.trace),
            deadline)
    except (PassFailed, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    tables = workloads.tables(args.workload)
    attempted = failed = 0
    for result in plain + traced:
        problems = check_pass(args.workload, result)
        attempted += len(tables)
        failed += len(problems)
        for (type_name, space), found in problems.items():
            for problem in found:
                print(f"MISMATCH {type_name} {space}: {problem}",
                      file=sys.stderr)
        for error in result.get("errors", ()):
            print(f"RAISED {error}", file=sys.stderr)

    e2e = end_to_end(plain, setup)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} "
          f"untraced and {len(traced)} traced passes, "
          f"{len(tables)} tables each")
    for name, unit in END_TO_END.items():
        print(f"  {name:<28} {e2e[name]:.6g} {unit}")
    print(f"  {'mismatch_frac':<28} {failed / attempted:.6g} "
          f"({failed} of {attempted} tables)")
    print("  wall_s per pass: "
          + " ".join(f"{r['wall_s']:.4g}" for r in plain))
    print("  measured seconds per pass: "
          + " ".join(f"{r['raw_wall_s']:.4g}" for r in plain))
    print("  median seconds per table: " + ", ".join(
        f"{t} {s} {v:.4g}" for (t, s), v in sorted(
            table_medians(plain).items(), key=lambda item: -item[1])))
    if args.trace:
        layers, unsteady = per_layer(plain, traced)
        units = {**LAYER_METRICS, **TRACE_METRICS}
        for name, value in layers.items():
            print(f"  {name:<28} {value:.6g} {units[name]}")
        path = write_trace(args.workload, args.seed, traced)
        print(f"  spans written to {path.relative_to(ROOT)}")
        if unsteady:
            print(f"warning: counts differ between traced passes: "
                  f"{', '.join(unsteady)}", file=sys.stderr)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
