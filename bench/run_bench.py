"""Benchmark of the rwsnsim pipeline: ExperimentSpec -> run_experiment -> write_outputs.

Run from the root of a checkout:

    python3 bench/run_bench.py --workload solve-n3 --seed 0 --seconds 40 --trace 0
    python3 bench/run_bench.py --workload all --trace 1

`--trace 0` repeats the workload, each repetition in a fresh interpreter,
for about `--seconds` seconds (at least three repetitions) and reports the
end-to-end metrics as medians. `--trace 1` makes one traced pass, one
cProfile pass and one untraced pass, all on one worker, and reports the
per-layer metrics. Every repetition's outputs are checked. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The exit code is 1 when a check fails, and 2 or 3 when the
benchmark cannot run; then no result line is printed.

Outputs, the result file with the environment, the trace and the profile
go to bench/results/<workload>/seed<N>-trace<T>/ (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import per_layer_units
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_REPS = 3
RUN_LIMIT_S = 150.0  # no repetition starts that would end after this
KILL_AFTER_S = 170.0  # a repetition still running then is killed; the run fails
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def run_rep(workload: str, seed: int, out: Path, mode: str, tiny: bool,
            workers: int | None, deadline: float) -> dict:
    """Run rep.py in a fresh interpreter and its own session; return its JSON."""
    cmd = [sys.executable, str(BENCH / "rep.py"), "--workload", workload, "--seed", str(seed),
           "--out", str(out), "--mode", mode]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers
        proc.communicate()
        raise BenchError(f"{workload} {mode} repetition still running after "
                         f"{KILL_AFTER_S:.0f}s of the run")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} repetition exited {proc.returncode}:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def tail(samples: list[float], beyond: int = 10) -> dict:
    """The highest percentile with at least `beyond` samples above it."""
    xs = sorted(samples)
    if len(xs) <= beyond:
        return {"percentile": None, "value": None,
                "note": f"needs more than {beyond} runs, have {len(xs)}"}
    i = len(xs) - 1 - beyond
    return {"percentile": 100.0 * (i + 1) / len(xs), "value": xs[i]}


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def environment() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level.strip()} {kind.strip() if kind else ''}".strip()] = size.strip()

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:  # the ceiling keeps git from finding a repository above the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env=env)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:  # no git installed
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def measure(workload: str, seed: int, seconds: float, out: Path, tiny: bool) -> dict:
    """Untraced repetitions for about `seconds`; end-to-end metrics as medians."""
    start = time.perf_counter()
    reps, durations = [], []
    while True:
        t = time.perf_counter()
        reps.append(run_rep(workload, seed, out, "plain", tiny, None, start + KILL_AFTER_S))
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        planned = elapsed + statistics.median(durations)
        if planned > RUN_LIMIT_S or (len(reps) >= MIN_REPS and planned > seconds):
            break
    walls = [r["wall_s"] for r in reps]
    metrics = {name: statistics.median(r[name] for r in reps) for name in END_TO_END_UNITS}
    return {
        "metrics": metrics,
        "reps": reps,
        "detail": {"wall_s": {"median": metrics["wall_s"], "tail": tail(walls),
                              "runs": len(walls), "samples": walls}},
    }


def trace(workload: str, seed: int, out: Path, tiny: bool) -> dict:
    """Traced, profiled and untraced passes on one worker; per-layer metrics."""
    deadline = time.perf_counter() + KILL_AFTER_S
    traced = run_rep(workload, seed, out, "trace", tiny, 1, deadline)
    profiled = run_rep(workload, seed, out, "profile", tiny, 1, deadline)
    plain = run_rep(workload, seed, out, "plain", tiny, 1, deadline)
    metrics = dict(traced["layers"])
    metrics["core.arrivals_per_slot_calls"] = profiled["arrivals_per_slot_calls"]
    return {
        "metrics": metrics,
        "reps": [traced, profiled, plain],
        "detail": {
            "tracing_overhead_s": traced["wall_s"] - plain["wall_s"],
            "traced_wall_s": traced["wall_s"],
            "untraced_wall_s_one_worker": plain["wall_s"],
            "solves": traced["solves"],
            "profile_top10": profiled["profile_top10"],
            "model_bytes_note": "mdp.model_bytes is computed from array nbytes, not measured",
        },
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool, tiny: bool,
                 results: Path) -> dict:
    out = results / workload / f"seed{seed}-trace{int(traced)}"
    load_start = os.getloadavg()
    env = environment()
    run = trace(workload, seed, out, tiny) if traced else measure(workload, seed, seconds,
                                                                   out, tiny)
    units = per_layer_units() if traced else END_TO_END_UNITS
    mismatch = set(units) ^ set(run["metrics"])
    if mismatch:
        raise BenchError(f"metric names differ from the declared ones: {sorted(mismatch)}")
    reps = run["reps"]
    problems = sorted({p for r in reps for p in r["problems"]})
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "tiny": tiny,
        "environment": {**env, "loadavg_start": load_start, "loadavg_end": os.getloadavg()},
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "sha256": reps[0]["sha256"],
        "sha256_same_in_every_rep": all(r["sha256"] == reps[0]["sha256"] for r in reps),
        "ehmdp_modes": reps[0]["ehmdp_modes"],
        "metrics": {k: {"value": run["metrics"][k], "unit": u} for k, u in units.items()},
        "detail": run["detail"],
        "reps": reps,
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--results", default=str(BENCH / "results"),
                    help="directory for outputs and result files")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if not (ROOT / "src" / "rwsnsim" / "experiments.py").is_file():
        print(f"rwsnsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        args.tiny, Path(args.results)))
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 3

    for rec in records:
        print(f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
              f"failed_ratio={rec['failed_ratio']:g} correct={rec['correct']}")
        for p in rec["problems"]:
            print(f"#   CHECK FAILED: {p}")
        for name, m in rec["metrics"].items():
            print(f"{rec['workload']:>9} {name:<42} {m['value']:>16.6g} {m['unit']}")
        if not args.trace:
            wall = rec["detail"]["wall_s"]
            tail_ = wall["tail"]
            tail_text = (tail_["note"] if tail_["value"] is None
                         else f"p{tail_['percentile']:.0f} = {tail_['value']:.6g} s")
            print(f"{rec['workload']:>9} {'wall_s runs':<42} {wall['runs']:>16d} "
                  f"(tail: {tail_text})")
    prefix = len(records) > 1
    line = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in records for k, v in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
