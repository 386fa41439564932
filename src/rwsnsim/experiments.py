"""Experiment grids over network size, slot length, and contention designs.

A grid point resolves to a full parameter set (channel gains drawn
deterministically per scenario, so every seed of a scenario sees the same
network); each (scenario, strategy, seed) run appends one raw row, and
aggregation reduces seeds to mean and standard error. The emitted manifest
captures the spec and every resolved scenario, so a rerun of
``ExperimentSpec(**manifest["spec"])`` reproduces the CSVs byte for byte;
it also records how each ehmdp solve went (mode, and for an exact
solve its sweep count and final residual). A scenario whose parameters
fail `core.validate` is reported once, as one failure, and skipped.
"""

from __future__ import annotations

import configparser
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

from .core import NetworkParams, draw_channel_gains, validate
from .eqat import TxProbDesign
from .mdp import (DEFAULT_STATE_BUDGET, MyopicChooser, PolicyChooser, StateSpaceBudgetError,
                  build_model, check_budget, value_iteration)
from .simulator import STRATEGIES, EqatStrategy, SlotTrace, simulate_run

log = logging.getLogger(__name__)

RAW_COLUMNS = [
    "n_nodes", "t_hat", "design", "strategy", "seed", "slots",
    "generated", "delivered", "dropped", "in_queue_final",
    "throughput_pps", "loss_rate",
]
AGG_COLUMNS = [
    "n_nodes", "t_hat", "design", "strategy", "n_seeds",
    "generated_mean", "delivered_mean", "dropped_mean",
    "throughput_pps_mean", "throughput_pps_stderr",
    "loss_rate_mean", "loss_rate_stderr",
]
TRACE_COLUMNS = [
    "n_nodes", "t_hat", "design", "strategy", "seed", "slot",
    "outcome", "transmitters", "energy_levels", "batteries", "queues",
]


@dataclass
class ExperimentSpec:
    """Grid definition plus execution knobs."""

    n_nodes: list[int] = field(default_factory=lambda: [10])
    t_hat: list[int] = field(default_factory=lambda: [10])  # mini-slots per interval
    designs: list[str] = field(default_factory=lambda: [EqatStrategy().design.label])
    strategies: list[str] = field(default_factory=lambda: list(STRATEGIES))
    slots: int = 10_000
    seeds: list[int] = field(default_factory=lambda: list(range(20)))
    minislot_len: float = 1e-3
    budget: int = DEFAULT_STATE_BUDGET
    workers: int = 1
    trace: bool = False
    network: dict = field(default_factory=dict)   # NetworkParams field overrides
    channel: dict = field(default_factory=dict)   # draw_channel_gains overrides
    eqat: dict = field(default_factory=dict)      # EqatStrategy overrides; design from designs
    rc: dict = field(default_factory=dict)        # RandomContentionStrategy overrides

    def validate(self) -> list[str]:
        v = []
        if not self.n_nodes:
            v.append("n_nodes grid must be non-empty")
        if not self.t_hat:
            v.append("t_hat grid must be non-empty")
        if not self.strategies:
            v.append("strategies must be non-empty")
        if not self.seeds:
            v.append("at least one seed is required")
        if self.slots < 0:
            v.append("slots must be >= 0")
        if not self.minislot_len > 0:
            v.append("minislot_len must be positive")
        if self.workers < 1:
            v.append("workers must be >= 1")
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            v.append(f"unknown strategies: {unknown}")
        if "eqat" in self.strategies and not self.designs:
            v.append("eqat needs at least one design")
        for d in self.designs:
            try:
                TxProbDesign.parse(d)
            except ValueError as e:
                v.append(str(e))
        for name, overrides in (("eqat", self.eqat), ("rc", self.rc)):
            try:
                STRATEGIES[name](**overrides)
            except (TypeError, ValueError) as e:
                v.append(f"[{name}] {e}")
        return v

    def resolve_params(self, n: int, t_hat: int) -> NetworkParams:
        """The scenario's parameters; raises ValueError listing every violated invariant."""
        overrides = dict(self.network)
        overrides["n_nodes"] = n
        overrides["slot_len"] = t_hat * self.minislot_len
        if "channel_gain" not in overrides:
            overrides["channel_gain"] = draw_channel_gains(n, **self.channel)
        params = NetworkParams(**overrides)
        problems = validate(params)
        if problems:
            raise ValueError("; ".join(problems))
        return params


def _parse_int_list(text: str) -> list[int]:
    """Comma lists and dash ranges: "0-4, 7" -> [0, 1, 2, 3, 4, 7]."""
    out: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk[1:]:
            lo, hi = chunk.split("-", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(chunk))
    return out


def _float_list(text: str) -> tuple[float, ...]:
    """A comma-separated list of floats."""
    return tuple(float(x) for x in text.split(",") if x.strip())


def _words(text: str) -> list[str]:
    return [w.strip() for w in text.split(",") if w.strip()]


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError("not a boolean") from None


# converters of the [network] keys (NetworkParams fields; n_nodes and
# slot_len come from [experiment]) and of the [channel] keys
# (draw_channel_gains arguments)
NETWORK_KEYS = {
    "packet_bits": int,
    "ber_target": float,
    "kappa1": float,
    "kappa2": float,
    "bs_power": float,
    "transfer_efficiency": float,
    "bandwidth": float,
    "arrival_period": float,
    "arrival_prob": float,
    "battery_levels": int,
    "battery_quantum": float,
    "queue_cap": int,
    "max_modulation": int,
    "discount": float,
    "vi_tol": float,
    "initial_battery": int,
    "channel_gain": _float_list,
}
CHANNEL_KEYS = {
    "seed": int,
    "reference_gain": float,
    "reference_dist": float,
    "min_dist": float,
    "max_dist": float,
    "pathloss_exp": float,
}

# the config file's schema (documented in ``rwsnsim --help``): each section's
# keys with their converters
_SPEC_SCHEMA = {
    "experiment": {
        "n_nodes": _parse_int_list,
        "t_hat": _parse_int_list,
        "designs": _words,
        "strategies": lambda text: _words(text.lower()),
        "slots": int,
        "seeds": _parse_int_list,
        "minislot_len": float,
        "budget": int,
        "workers": int,
        "trace": _boolean,
    },
    "network": NETWORK_KEYS,
    "channel": CHANNEL_KEYS,
    "eqat": {"alpha": float, "threshold": float, "backoff_window": int},
    "rc": {"contention_prob": float},
}


def read_config(path: str, schema: dict[str, dict[str, Callable]]) -> dict[str, dict]:
    """The converted values of an INI file, by section: {section: {key: value}}.

    `schema` maps every allowed section to its keys' converters; each of its
    sections is in the result, empty when the file leaves it out. Raises
    FileNotFoundError for a missing file, and one ValueError naming every
    section and key the schema does not know, or else the first value that
    does not convert.
    """
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise FileNotFoundError(path)
    unknown = ["[DEFAULT]"] if cp.defaults() else []
    for name in cp.sections():
        if name not in schema:
            unknown.append(f"[{name}]")
        else:
            unknown += [f"[{name}] {key}" for key in cp.options(name) if key not in schema[name]]
    if unknown:
        raise ValueError(f"{path}: unknown config entries: {', '.join(unknown)}")
    out: dict[str, dict] = {name: {} for name in schema}
    for name in cp.sections():
        for key, text in cp.items(name):
            try:
                out[name][key] = schema[name][key](text)
            except ValueError as e:
                raise ValueError(f"{path}: [{name}] {key} = {text!r}: {e}") from None
    return out


def spec_from_config(path: str) -> ExperimentSpec:
    """Load an ExperimentSpec from an INI config (schema in ``rwsnsim --help``).

    An unknown section or key is an error (see `read_config`).
    """
    cfg = read_config(path, _SPEC_SCHEMA)
    return ExperimentSpec(**cfg.pop("experiment"), **cfg)


@dataclass
class ExperimentResult:
    raw_rows: list[dict]
    agg_rows: list[dict]
    manifest: dict
    failures: list[dict]
    trace_rows: list[dict] = field(default_factory=list)


def _run_one(args):
    params, strategy, slots, seed, trace, strategy_kw = args
    try:
        return simulate_run(params, strategy, slots, seed, trace, **strategy_kw)
    except Exception as e:  # reported per task; the grid keeps running
        return ("error", f"{type(e).__name__}: {e}")


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    problems = spec.validate()
    if problems:
        raise ValueError("; ".join(problems))

    tasks = []       # (scenario key, args) in deterministic grid order
    scenarios = []
    failures: list[dict] = []
    for n in spec.n_nodes:
        for t_hat in spec.t_hat:
            try:
                params = spec.resolve_params(n, t_hat)
            except Exception as e:
                failures.append({"n_nodes": n, "t_hat": t_hat, "error": str(e)})
                continue
            ehmdp_mode = None
            vi_result = None
            chooser = None   # built once here, shipped to every ehmdp task
            if "ehmdp" in spec.strategies:
                try:
                    # checked before build_model is entered, so every build_model
                    # call returns a model (the benchmark's traced spans describe it)
                    check_budget(params, spec.budget)
                    vi_result = value_iteration(build_model(params, budget=spec.budget))
                    chooser = PolicyChooser(vi_result)
                    ehmdp_mode = "exact"
                except StateSpaceBudgetError as e:
                    log.info("scenario N=%d T=%d: %s; ehmdp runs in myopic mode", n, t_hat, e)
                    ehmdp_mode = "myopic"
                except Exception as e:
                    failures.append({"n_nodes": n, "t_hat": t_hat,
                                     "strategy": "ehmdp", "error": str(e)})
                    ehmdp_mode = "myopic"
                if chooser is None:
                    chooser = MyopicChooser(params)
            scenarios.append({
                "n_nodes": n,
                "t_hat": t_hat,
                "ehmdp_mode": ehmdp_mode,
                "ehmdp_sweeps": vi_result.sweeps if vi_result is not None else None,
                "ehmdp_residual": vi_result.residual if vi_result is not None else None,
                "params": params_dict(params),
            })
            for strategy in spec.strategies:
                # (design column, constructor kwargs) of each row group
                if strategy == "eqat":
                    groups = [(token, {**spec.eqat, "design": TxProbDesign.parse(token)})
                              for token in spec.designs]
                else:
                    kw = {"ehmdp": {"chooser": chooser}, "rc": spec.rc}.get(strategy, {})
                    groups = [("-", kw)]
                for design, kw in groups:
                    for seed in spec.seeds:
                        key = {"n_nodes": n, "t_hat": t_hat,
                               "design": design, "strategy": strategy, "seed": seed}
                        tasks.append((key, (params, strategy, spec.slots, seed, spec.trace, kw)))

    raw_rows: list[dict] = []
    trace_rows: list[dict] = []
    if spec.workers > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            outcomes = list(pool.map(_run_one, [a for _, a in tasks]))
    else:
        outcomes = [_run_one(a) for _, a in tasks]

    for (key, args), (metrics, traces) in zip(tasks, outcomes):
        if metrics == "error":
            failures.append({**key, "error": traces})
            continue
        raw_rows.append({
            **key,
            "slots": metrics.slots,
            "generated": metrics.generated,
            "delivered": metrics.delivered,
            "dropped": metrics.dropped_overflow,
            "in_queue_final": metrics.in_queue_final,
            "throughput_pps": metrics.throughput_pps,
            "loss_rate": metrics.loss_rate,
        })
        if traces:
            trace_rows.extend(_trace_dicts(key, traces))

    manifest = {
        "format": "rwsnsim-experiment-2",
        "spec": asdict(spec),
        "scenarios": scenarios,
    }
    return ExperimentResult(
        raw_rows=raw_rows,
        agg_rows=aggregate_rows(raw_rows),
        manifest=manifest,
        failures=failures,
        trace_rows=trace_rows,
    )


def _trace_dicts(key: dict, traces: list[SlotTrace]) -> list[dict]:
    out = []
    for t in traces:
        out.append({
            **key,
            "slot": t.slot,
            "outcome": t.outcome,
            "transmitters": "|".join(map(str, t.transmitters)),
            "energy_levels": t.energy_levels,
            "batteries": "|".join(map(str, t.batteries)),
            "queues": "|".join(map(str, t.queues)),
        })
    return out


def params_dict(params: NetworkParams) -> dict:
    d = {f.name: getattr(params, f.name) for f in fields(NetworkParams)}
    d["channel_gain"] = list(d["channel_gain"])
    return d


def aggregate_rows(raw_rows: list[dict]) -> list[dict]:
    """Mean and standard error over seeds per (scenario, strategy, design)."""
    groups: dict[tuple, list[dict]] = {}
    order: list[tuple] = []
    for row in raw_rows:
        key = (row["n_nodes"], row["t_hat"], row["design"], row["strategy"])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)

    def mean(vals):
        return sum(vals) / len(vals)

    def stderr(vals):
        if len(vals) < 2:
            return 0.0
        m = mean(vals)
        var = sum((v - m) ** 2 for v in vals) / (len(vals) - 1)
        return math.sqrt(var / len(vals))

    out = []
    for key in order:
        rows = groups[key]
        tp = [r["throughput_pps"] for r in rows]
        lr = [r["loss_rate"] for r in rows]
        out.append({
            "n_nodes": key[0],
            "t_hat": key[1],
            "design": key[2],
            "strategy": key[3],
            "n_seeds": len(rows),
            "generated_mean": mean([r["generated"] for r in rows]),
            "delivered_mean": mean([r["delivered"] for r in rows]),
            "dropped_mean": mean([r["dropped"] for r in rows]),
            "throughput_pps_mean": mean(tp),
            "throughput_pps_stderr": stderr(tp),
            "loss_rate_mean": mean(lr),
            "loss_rate_stderr": stderr(lr),
        })
    return out


def format_csv(rows: list[dict], columns: list[str]) -> str:
    """Deterministic CSV text: fixed column order, repr for floats."""
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row.get(col, "")
            cells.append(repr(v) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_outputs(result: ExperimentResult, out_dir: str) -> dict[str, str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "raw": out / "raw.csv",
        "aggregate": out / "aggregate.csv",
        "manifest": out / "manifest.json",
    }
    paths["raw"].write_text(format_csv(result.raw_rows, RAW_COLUMNS))
    paths["aggregate"].write_text(format_csv(result.agg_rows, AGG_COLUMNS))
    paths["manifest"].write_text(json.dumps(result.manifest, indent=2, sort_keys=True) + "\n")
    if result.trace_rows:
        paths["trace"] = out / "traces.csv"
        paths["trace"].write_text(format_csv(result.trace_rows, TRACE_COLUMNS))
    return {k: str(v) for k, v in paths.items()}


def read_agg_csv(path: str) -> list[dict]:
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    if header != AGG_COLUMNS:
        raise ValueError(f"unexpected aggregate schema {header}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        row = dict(zip(header, cells))
        for k in ("n_nodes", "t_hat", "n_seeds"):
            row[k] = int(row[k])
        for k in ("generated_mean", "delivered_mean", "dropped_mean",
                  "throughput_pps_mean", "throughput_pps_stderr",
                  "loss_rate_mean", "loss_rate_stderr"):
            row[k] = float(row[k])
        rows.append(row)
    return rows


def report(agg_rows: list[dict]) -> dict:
    """Ordering tables per scenario and monotone-trend flags per strategy.

    Two strategies whose means differ by less than one joint standard error
    are reported as tied rather than silently ordered.
    """
    scenarios: dict[tuple, list[dict]] = {}
    for row in agg_rows:
        scenarios.setdefault((row["n_nodes"], row["t_hat"]), []).append(row)

    def label(row):
        if row["strategy"] == "eqat" and row["design"] != "-":
            return f"eqat({row['design']})"
        return row["strategy"]

    tables = []
    lines = []
    for (n, t_hat), rows in sorted(scenarios.items()):
        by_tp = sorted(rows, key=lambda r: -r["throughput_pps_mean"])
        ranking = []
        for i, r in enumerate(by_tp):
            tie = False
            if i > 0:
                prev = by_tp[i - 1]
                se = math.hypot(r["throughput_pps_stderr"], prev["throughput_pps_stderr"])
                tie = abs(prev["throughput_pps_mean"] - r["throughput_pps_mean"]) < se
            ranking.append({
                "strategy": label(r),
                "throughput_pps": r["throughput_pps_mean"],
                "loss_rate": r["loss_rate_mean"],
                "tied_with_previous": tie,
            })
        tables.append({"n_nodes": n, "t_hat": t_hat, "by_throughput": ranking})
        lines.append(f"scenario N={n} T={t_hat}:")
        for i, entry in enumerate(ranking):
            marker = "=" if entry["tied_with_previous"] else f"{i + 1}."
            lines.append(
                f"  {marker:>2} {entry['strategy']:<18} "
                f"throughput={entry['throughput_pps']:.3f} pps "
                f"loss={entry['loss_rate']:.4f}"
            )

    trends = []
    by_strategy: dict[tuple, list[dict]] = {}
    for row in agg_rows:
        by_strategy.setdefault((row["strategy"], row["design"], row["n_nodes"]), []).append(row)
    for (strategy, design, n), rows in sorted(by_strategy.items()):
        if len({r["t_hat"] for r in rows}) < 2:
            continue
        rows = sorted(rows, key=lambda r: r["t_hat"])
        tp = [r["throughput_pps_mean"] for r in rows]
        lr = [r["loss_rate_mean"] for r in rows]
        trends.append({
            "strategy": strategy,
            "design": design,
            "n_nodes": n,
            "t_hat": [r["t_hat"] for r in rows],
            "throughput_non_increasing": all(a >= b for a, b in zip(tp, tp[1:])),
            "loss_non_decreasing": all(a <= b for a, b in zip(lr, lr[1:])),
        })
        lines.append(
            f"trend {strategy} N={n} over T={[r['t_hat'] for r in rows]}: "
            f"throughput {'non-increasing' if trends[-1]['throughput_non_increasing'] else 'NOT monotone'}, "
            f"loss {'non-decreasing' if trends[-1]['loss_non_decreasing'] else 'NOT monotone'}"
        )

    return {"tables": tables, "trends": trends, "text": "\n".join(lines)}
