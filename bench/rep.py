"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/rep.py --workload NAME --seed N --out DIR \
        [--mode plain|trace|profile] [--workers K] [--tiny]

Times set-up (import of `rwsnsim`, building and validating the spec,
resolving every grid point) and then the pipeline from `run_experiment`
to the return of `write_outputs`, checks the written outputs, and prints
one JSON object on standard output. `--mode trace` patches spans into the
layers (see tracing.py) and writes DIR/trace.json; `--mode profile` runs
the pipeline under cProfile and writes DIR/profile.pstats and
DIR/profile_top10.txt.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import pstats
import resource
import sys
import time
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


def sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def top_self_time(stats: pstats.Stats, count: int) -> list[dict]:
    rows = sorted(stats.stats.items(), key=lambda kv: -kv[1][2])[:count]
    return [
        {"function": f"{Path(file).name}:{line}({func})", "calls": nc, "self_s": tt,
         "cumulative_s": ct}
        for (file, line, func), (_, nc, tt, ct, _) in rows
    ]


def calls_of(stats: pstats.Stats, module: str, func: str) -> int:
    return sum(nc for (file, _, name), (_, nc, *_) in stats.stats.items()
               if name == func and Path(file).name == module)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", choices=("plain", "trace", "profile"), default="plain")
    ap.add_argument("--workers", type=int, default=None)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from rwsnsim import experiments

    spec = workloads.make_spec(args.workload, args.seed, tiny=args.tiny)
    if args.workers is not None:
        spec.workers = args.workers
    problems = spec.validate()
    if problems:
        raise SystemExit(f"invalid spec for {args.workload}: {'; '.join(problems)}")
    for n in spec.n_nodes:
        for t_hat in spec.t_hat:
            spec.resolve_params(n, t_hat)
    setup_s = time.perf_counter() - t0

    tracer = profiler = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}")
        undo = tracing.install(tracer)
    elif args.mode == "profile":
        profiler = cProfile.Profile()

    t1 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    result = experiments.run_experiment(spec)
    paths = experiments.write_outputs(result, str(out))
    if profiler is not None:
        profiler.disable()
    wall_s = time.perf_counter() - t1
    if tracer is not None:
        undo()

    tasks = len(result.raw_rows) + sum(1 for f in result.failures if "seed" in f)
    rep = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "workers": spec.workers,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": len(spec.n_nodes) * len(spec.t_hat) + tasks,
        "failed": len(result.failures),
        "ehmdp_modes": [(s["n_nodes"], s["t_hat"], s["ehmdp_mode"])
                        for s in result.manifest["scenarios"]],
        "sha256": {"raw.csv": sha256(paths["raw"]), "aggregate.csv": sha256(paths["aggregate"])},
    }
    solves = []
    if tracer is not None:
        solves = tracing.solves(tracer.spans)
        rep["solves"] = solves
        rep["layers"] = tracing.layer_metrics(tracer.spans)
        (out / "trace.json").write_text(json.dumps({"run": tracer.run_id, "spans": tracer.spans}))
    if profiler is not None:
        profiler.dump_stats(str(out / "profile.pstats"))
        with open(out / "profile_top10.txt", "w") as f:
            pstats.Stats(profiler, stream=f).sort_stats("tottime").print_stats(10)
        stats = pstats.Stats(profiler)
        rep["profile_top10"] = top_self_time(stats, 10)
        rep["arrivals_per_slot_calls"] = calls_of(stats, "core.py", "arrivals_per_slot")

    rep["problems"] = checks.check_outputs(
        checks.read_raw_csv(paths["raw"]), result.failures, result.manifest["scenarios"],
        spec.strategies, solves,
    )
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
