"""Tests of the benchmark itself: declared metrics, output checks, tiny runs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run_bench
import tracing
import workloads
from rwsnsim.experiments import run_experiment, write_outputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declared_metrics_match_the_code():
    assert declared_units("end_to_end") == run_bench.END_TO_END_UNITS
    assert declared_units("per_layer") == tracing.per_layer_units()
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    spec = workloads.make_spec("grid-ref", 0, tiny=True)
    spec.workers = 1
    result = run_experiment(spec)
    paths = write_outputs(result, str(tmp_path_factory.mktemp("out")))
    return spec, result, checks.read_raw_csv(paths["raw"])


def test_checker_accepts_real_outputs(tiny_outputs):
    spec, result, rows = tiny_outputs
    assert checks.check_outputs(rows, result.failures, result.manifest["scenarios"],
                                spec.strategies) == []


def test_checker_rejects_a_corrupted_raw_row(tiny_outputs):
    spec, result, rows = tiny_outputs
    rows = [dict(r) for r in rows]
    rows[3]["delivered"] = str(int(rows[3]["delivered"]) + 1)
    problems = checks.check_outputs(rows, result.failures, result.manifest["scenarios"],
                                    spec.strategies)
    assert len(problems) == 1 and problems[0].startswith("raw row 3 ")


def test_checker_rejects_a_failure_row(tiny_outputs):
    spec, result, rows = tiny_outputs
    failure = {"n_nodes": 2, "t_hat": 10, "strategy": "rs", "seed": 0, "error": "boom"}
    problems = checks.check_outputs(rows, [failure], result.manifest["scenarios"],
                                    spec.strategies)
    assert len(problems) == 1 and "boom" in problems[0]


def test_checker_rejects_myopic_fallback_and_unconverged_solve():
    scenarios = [{"n_nodes": 3, "t_hat": 10, "ehmdp_mode": "myopic"},
                 {"n_nodes": 10, "t_hat": 10, "ehmdp_mode": "myopic"}]
    assert len(checks.check_ehmdp_exact(scenarios, ["ehmdp"])) == 1
    assert checks.check_ehmdp_exact(scenarios, ["rs"]) == []
    solve = {"n_nodes": 3, "slot_len": 0.01, "residual": 2e-8, "threshold": 2e-8}
    assert len(checks.check_residuals([solve])) == 1
    assert checks.check_residuals([{**solve, "residual": 1e-8}]) == []


def test_tail_is_the_highest_percentile_with_ten_runs_beyond():
    assert run_bench.tail([1.0] * 10)["value"] is None
    t = run_bench.tail([float(i) for i in range(20)])
    assert t == {"percentile": 50.0, "value": 9.0}


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run_bench.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_workload_runs_at_a_tiny_size(workload, trace, tmp_path):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
                 "--tiny", "--results", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    units = declared_units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    record = json.loads((tmp_path / workload / f"seed3-trace{trace}" / "result.json").read_text())
    assert record["environment"]["nproc"] >= 1
    assert set(record["sha256"]) == {"raw.csv", "aggregate.csv"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "contend", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
