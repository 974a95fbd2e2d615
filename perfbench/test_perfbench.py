"""Self-tests of the benchmark: oracle, coverage, names, repeatable counts.

    python3 -m pytest perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from ncphom import HomologyGroup  # noqa: E402

import calibrate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
COUNTS = [name for name, unit in LAYER_METRICS.items() if unit != "s"]


@pytest.mark.parametrize("type_name, space", [
    ("A3", "FP"), ("B3", "FQ"), ("A3", "M"), ("B3", "MW")])
def test_oracle_flags_wrong_groups(type_name, space):
    pairs, euler = oracle.expected(type_name, space)
    right = [HomologyGroup(free, torsion) for free, torsion in pairs]
    assert oracle.check(type_name, space, oracle.pairs_of(right), euler) \
        == []
    wrong = list(right)
    wrong[1] = HomologyGroup(right[1].free_rank, (2,))
    assert oracle.check(type_name, space, oracle.pairs_of(wrong), euler)
    shifted = list(right)
    shifted[-1] = HomologyGroup(right[-1].free_rank + 1)
    assert oracle.check(type_name, space, oracle.pairs_of(shifted),
                        euler + (-1) ** (len(right) - 1))
    assert oracle.check(type_name, space, oracle.pairs_of(right), euler + 2)


def test_oracle_reads_cli_text():
    assert oracle.parse_groups("H0=Z H1=Z^2+Z_2+Z_2 H2=0") == [
        (1, ()), (2, (2, 2)), (0, ())]
    assert oracle.check_text("A3", "FP", "H0=Z H1=Z^2 H2=Z^2") == []
    assert oracle.check_text("A3", "FP", "H0=Z H1=Z^2 H2=Z^2+Z_2")
    assert oracle.check_text("A3", "FP", "H0=Z H2=Z^2")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_table_has_an_oracle(workload):
    for type_name, space in workloads.tables(workload):
        pairs, _ = oracle.expected(type_name, space)
        assert pairs


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == {**LAYER_METRICS, **run.TRACE_METRICS}
    names = [item["name"] for key in ("workloads", "end_to_end", "per_layer")
             for item in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_seed_only_permutes_tables():
    for workload in workloads.TABLE_WORKLOADS:
        for seed in (1, 2):
            assert sorted(workloads.table_order(workload, seed)) \
                == sorted(workloads.tables(workload))
    for seed in (1, 2):
        argvs = workloads.verify_argvs(seed)
        listed = [(argv[i + 1], argv[3]) for argv in argvs
                  for i in range(4, len(argv), 2)]
        assert sorted(listed) == sorted(workloads.tables("verify-batch"))


def _counts(result):
    metrics = result["trace"]["metrics"]
    return {name: metrics[name] for name in COUNTS}


def _traced_counts(fn, plan):
    with calibrate.Calibrator() as calibrator:
        tracer = Tracer().install()
        try:
            fn(plan, calibrator, tracer)
        finally:
            tracer.uninstall()
    return _counts({"trace": tracer.report()})


def test_traced_counts_repeat_in_process():
    from ncphom.coxgroup import CoxeterGroup

    original = CoxeterGroup.__dict__["multiply"]
    order = [("A3", "M"), ("B3", "FP"), ("A3", "MW"), ("A2", "FQ0")]
    first = _traced_counts(worker.run_tables, order)
    assert CoxeterGroup.__dict__["multiply"] is original
    assert first["coxgroup.multiply_calls"] > 0
    assert first == _traced_counts(worker.run_tables, order[::-1])
    argvs = [["verify", "tables", "--space", "FP", "--type", "A3",
              "--type", "I2(5)"]]
    assert _traced_counts(worker.run_verify, argvs) \
        == _traced_counts(worker.run_verify, argvs)


def test_worker_counts_repeat_across_runs_and_seeds():
    counts = []
    for seed in (1, 1, 2):
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload",
             "verify-batch", "--seed", str(seed), "--trace", "1"],
            cwd=ROOT, env=run._env(), capture_output=True, text=True,
            timeout=120, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert run.check_pass("verify-batch", result) == {}
        counts.append(_counts(result))
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["homology.matrices"] > 0


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_snf_label_follows_the_path_taken(monkeypatch):
    import ncphom.homology as homology
    from ncphom.homology import BoundaryMatrix

    taken = []
    for path in ("sparse", "dense"):
        original = getattr(homology, f"_{path}_diagonalize")

        def record(matrix, path=path, original=original):
            taken.append(path)
            return original(matrix)
        monkeypatch.setattr(homology, f"_{path}_diagonalize", record)
    limit = homology.DENSE_LIMIT
    shapes = [(limit, limit), (limit + 1, limit), (limit, limit + 1),
              (limit + 1, limit + 1), (3, limit + 5), (limit - 1, 2)]
    tracer = Tracer().install()
    try:
        for rows, cols in shapes:
            entries = {(i, i): 2 if i % 3 else 1
                       for i in range(min(rows, cols))}
            del taken[:]
            homology.invariant_factors(BoundaryMatrix(rows, cols, entries))
            assert tracer.spans[-1]["name"] == f"homology.snf_{taken[0]}", \
                (rows, cols)
            assert len(taken) == 1
    finally:
        tracer.uninstall()


def test_calibrator_samples_and_ends():
    with calibrate.Calibrator() as calibrator:
        assert calibrator.sample() > 0
        assert calibrator.sample() > 0
    assert calibrator._proc.returncode == 0
