"""Experiment grids over network size, slot length, and contention designs.

A grid point resolves to a full parameter set (channel gains drawn
deterministically per scenario, so every seed of a scenario sees the same
network). One task, in process or on the worker pool, plays every run of a
(scenario, seed) in spec order on one `simulator.ArrivalTape`, so the seed's
arrivals are drawn once; a run that raises is one failure row, and the
task goes on with the next run; each process computes a network's energy
profiles once. A scenario's tasks are consecutive, one per seed, so each
run's outcome is found by its place, and each (scenario, strategy, design,
seed) run appends one raw row in grid order (scenario, then strategy and
design, then seed), in process or not: the run key (`KEY_COLUMNS`; an eqat
run's design is the parsed design's `label`, however the spec spelt it),
then the fields of its `simulator.RunMetrics`; with tracing, one trace row
per slot: the key, then the fields of a `simulator.SlotTrace`, a tuple's
items joined by ``|``. An aggregate row reduces a (scenario, strategy,
design) group's seeds: its key, its seed count, ``<field>_mean`` of each
`RunMetrics` field but slots (the run length), and ``<field>_stderr`` of
each float field as well (the sample standard error, 0.0 for one seed).
The manifest captures the spec and every resolved scenario, so a rerun of
``ExperimentSpec(**manifest["spec"])`` reproduces the CSVs byte for byte;
it also records how each ehmdp solve went (its mode, which nothing else
records, and for an exact solve its sweep count, final residual, the
sweeps that fell back from Anderson mixing to the plain step, the joint
states it held, and the build-plus-solve wall time, the one entry a rerun
does not reproduce). A scenario whose parameters alone fail
`core.validate` is reported once, as one failure, and skipped. A scenario
whose model build or solve fails, in either mode, is one failure row too,
and runs no ehmdp: no other chooser stands in under its name (the myopic
one runs only above the state budget), so its ehmdp mode is None and it
has no ehmdp rows.

A config file's keys are the declared names of what each section sets,
and each value converts by its declared type: [experiment] the
`ExperimentSpec` fields, [network] the `NetworkParams` fields but n_nodes
and slot_len (the grid sets them), [channel] the `draw_channel_gains`
parameters but n_nodes, [eqat] and [rc] the parameters of `EqatStrategy`
and of the `rc` preset's factory but eqat's design (set by designs).
`ExperimentSpec.validate` checks a spec's every value against the same
declared type, then the [channel], [eqat] and [rc] ranges by a draw and
the constructors, and, when all of that holds, a `core.validate` problem
of every grid point's parameters. It also refuses a grid size below 1,
and a value repeated in n_nodes, t_hat, strategies, designs (as parsed)
or seeds, which would run twice and count twice in its aggregate row.
"""

from __future__ import annotations

import configparser
import inspect
import json
import math
import time
from collections import Counter
from collections.abc import Collection
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import NoneType
from typing import Callable

from .core import NetworkParams, draw_channel_gains, validate
from .eqat import TxProbDesign
from .mdp import MyopicChooser, PolicyChooser, build_model, value_iteration
from .simulator import STRATEGIES, ArrivalTape, EqatStrategy, RunMetrics, SlotTrace, simulate_run

KEY_COLUMNS = ["n_nodes", "t_hat", "design", "strategy", "seed"]
RAW_COLUMNS = KEY_COLUMNS + [f.name for f in fields(RunMetrics)]
TRACE_COLUMNS = KEY_COLUMNS + [f.name for f in fields(SlotTrace)]
# each RunMetrics field but slots (the run length), and its statistics over seeds
_STATS = {f.name: ("mean", "stderr") if f.type == "float" else ("mean",)
          for f in fields(RunMetrics) if f.name != "slots"}
# each aggregate column and its type, which `read_agg_csv` converts a cell to
AGG_COLUMNS: dict[str, type] = {
    "n_nodes": int, "t_hat": int, "design": str, "strategy": str, "n_seeds": int,
    **{f"{name}_{stat}": float for name, stats in _STATS.items() for stat in stats},
}


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
    # the most joint states, m^N over every battery level and not only the
    # reachable ones, at which ehmdp solves exactly; above it, myopic mode
    # (N=3 has 74,088 at the defaults, N=4 3.1 M; counting the reachable
    # states would solve N=4 to 6 exactly there and move their ehmdp rows)
    budget: int = 200_000
    workers: int = 1
    trace: bool = False
    network: dict = field(default_factory=dict)   # NetworkParams field overrides
    channel: dict = field(default_factory=dict)   # draw_channel_gains overrides
    eqat: dict = field(default_factory=dict)      # EqatStrategy overrides; design from designs
    rc: dict = field(default_factory=dict)        # the rc preset's overrides

    def validate(self) -> list[str]:
        v = _wrong_types("experiment", vars(self))
        if v:
            return v   # the checks below compare and iterate these values
        for name in ("n_nodes", "t_hat"):
            if not getattr(self, name):
                v.append(f"{name} grid must be non-empty")
            if any(size < 1 for size in getattr(self, name)):
                v.append(f"{name} must be >= 1")
        if not self.strategies:
            v.append("strategies must be non-empty")
        if not self.seeds:
            v.append("at least one seed is required")
        designs: dict[TxProbDesign, list[str]] = {}   # each design's tokens
        for d in self.designs:
            try:
                designs.setdefault(TxProbDesign.parse(d), []).append(d)
            except ValueError as e:
                v.append(str(e))
        for name in ("n_nodes", "t_hat", "strategies", "designs", "seeds"):
            if name == "designs":   # one design however spelt: name its distinct tokens
                repeated = [t for ts in designs.values() if len(ts) > 1 for t in dict.fromkeys(ts)]
            else:
                repeated = [x for x, count in Counter(getattr(self, name)).items() if count > 1]
            if repeated:
                v.append(f"repeated {name}: {repeated}")
        if self.slots < 0:
            v.append("slots must be >= 0")
        if any(seed < 0 for seed in self.seeds):
            v.append("seeds must be >= 0")
        if self.budget < 0:
            v.append("budget must be >= 0 (0 runs ehmdp in myopic mode)")
        if not 0 < self.minislot_len < math.inf:
            v.append("minislot_len must be positive and finite")
        if self.workers < 1:
            v.append("workers must be >= 1")
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            v.append(f"unknown strategies: {unknown}")
        if "eqat" in self.strategies and not self.designs:
            v.append("eqat needs at least one design")
        for name in ("network", "channel", "eqat", "rc"):
            overrides = getattr(self, name)
            unknown = sorted(set(overrides) - set(_SPEC_SCHEMA[name]))
            wrong = ([f"[{name}] unknown keys: {', '.join(unknown)}"] if unknown
                     else _wrong_types(name, overrides))
            if wrong:
                v += wrong   # the ranges below take known keys of their declared types
                continue
            try:   # the ranges, in their own words: one draw, or the strategy's constructor
                if name == "channel":
                    draw_channel_gains(1, **overrides)
                elif name in STRATEGIES:
                    STRATEGIES[name](**overrides)
            except ValueError as e:
                v.append(f"[{name}] {e}")
        if not v:   # each grid point's params build: a problem of them all is the spec's
            problems = [validate(self._params(n, t)) for n in self.n_nodes for t in self.t_hat]
            v += [x for x in problems[0] if all(x in other for other in problems[1:])]
        return v

    def _params(self, n: int, t_hat: int) -> NetworkParams:
        """The scenario's parameters, unvalidated."""
        overrides = {**self.network, "n_nodes": n, "slot_len": t_hat * self.minislot_len}
        if "channel_gain" not in overrides:
            overrides["channel_gain"] = draw_channel_gains(n, **self.channel)
        return NetworkParams(**overrides)

    def resolve_params(self, n: int, t_hat: int) -> NetworkParams:
        """The scenario's parameters; raises ValueError listing every `core.validate` problem."""
        params = self._params(n, t_hat)
        if problems := validate(params):
            raise ValueError("; ".join(problems))
        return params


def _parse_int_list(text: str) -> list[int]:
    """Comma lists and ascending dash ranges: "0-4, 7" -> [0, 1, 2, 3, 4, 7]."""
    out: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk[1:]:
            lo, hi = (int(x) for x in chunk.split("-", 1))
            if hi < lo:
                raise ValueError(f"descending range {chunk!r}")
            out.extend(range(lo, hi + 1))
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


@dataclass(frozen=True)
class _Type:
    """A declared type: how a config value converts to it, and what a spec may
    hold for it (an int for a float; a list for a tuple, as JSON gives it back)."""

    name: str                          # the annotation
    convert: Callable[[str], object]
    types: tuple[type, ...]
    items: tuple[type, ...] = ()       # of a list's or tuple's elements

    def holds(self, value) -> bool:
        def of(v, types):   # isinstance, except that a bool is of no type but bool
            return isinstance(v, types) and (bool in types or not isinstance(v, bool))

        return of(value, self.types) and (
            not self.items or value is None or all(of(x, self.items) for x in value))


# every declared type by its annotation; an annotation missing here is a
# KeyError at import
_CONVERTERS = {d.name: d for d in (
    _Type("int", int, (int,)),
    _Type("int | None", int, (int, NoneType)),
    _Type("float", float, (int, float)),
    _Type("bool", _boolean, (bool,)),
    _Type("list[int]", _parse_int_list, (list,), (int,)),
    _Type("list[str]", _words, (list,), (str,)),
    _Type("tuple[float, ...] | None", _float_list, (tuple, list, NoneType), (int, float)),
)}


def _declared(obj: Callable, *skip: str) -> dict[str, _Type]:
    """The `_CONVERTERS` entry of each of dataclass `obj`'s fields or callable
    `obj`'s parameters, less `skip`."""
    if is_dataclass(obj):
        pairs = [(f.name, f.type) for f in fields(obj)]
    else:
        pairs = [(name, par.annotation) for name, par in inspect.signature(obj).parameters.items()]
    return {name: _CONVERTERS[ann] for name, ann in pairs if name not in skip}


# the config file's schema (see the module docstring and ``rwsnsim --help``)
_SPEC_SCHEMA = {
    "experiment": {
        **_declared(ExperimentSpec, "network", "channel", "eqat", "rc"),
        "strategies": replace(_CONVERTERS["list[str]"], convert=lambda text: _words(text.lower())),
    },
    "network": _declared(NetworkParams, "n_nodes", "slot_len"),
    "channel": _declared(draw_channel_gains, "n_nodes"),
    "eqat": _declared(EqatStrategy, "design"),
    "rc": _declared(STRATEGIES["rc"]),
}


def _wrong_types(section: str, values: dict) -> list[str]:
    """A problem for each of `values` that `section` declares and that is not of its type."""
    declared = _SPEC_SCHEMA[section]
    return [f"[{section}] {key}: expected {declared[key].name}, got {value!r}"
            for key, value in values.items() if key in declared and not declared[key].holds(value)]


def read_config(path: str) -> dict[str, dict]:
    """The converted values of an INI file, by section: {section: {key: value}}.

    Every section of `_SPEC_SCHEMA` is in the result, empty when the file
    leaves it out. Raises FileNotFoundError for a missing file, and one
    ValueError naming every section and key the schema does not know, or
    else the first value that does not convert.
    """
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise FileNotFoundError(path)
    unknown = ["[DEFAULT]"] if cp.defaults() else []
    for name in cp.sections():
        if name not in _SPEC_SCHEMA:
            unknown.append(f"[{name}]")
        else:
            unknown += [f"[{name}] {key}" for key in cp.options(name) if key not in _SPEC_SCHEMA[name]]
    if unknown:
        raise ValueError(f"{path}: unknown config entries: {', '.join(unknown)}")
    out: dict[str, dict] = {name: {} for name in _SPEC_SCHEMA}
    for name in cp.sections():
        for key, text in cp.items(name):
            try:
                out[name][key] = _SPEC_SCHEMA[name][key].convert(text)
            except ValueError as e:
                raise ValueError(f"{path}: [{name}] {key} = {text!r}: {e}") from None
    return out


def spec_from_config(path: str) -> ExperimentSpec:
    """Load an ExperimentSpec from an INI config (schema in ``rwsnsim --help``).

    An unknown section or key is an error (see `read_config`).
    """
    cfg = read_config(path)
    return ExperimentSpec(**cfg.pop("experiment"), **cfg)


@dataclass
class ExperimentResult:
    raw_rows: list[dict]
    agg_rows: list[dict]
    manifest: dict
    failures: list[dict]
    trace_rows: list[dict] = field(default_factory=list)


def _run_one(args):
    """One task: every run of one (scenario, seed), in spec order, on one arrival
    tape; each run's (metrics, traces), or (None, message) for a run that raised."""
    params, seed, slots, trace, runs = args
    arrivals = ArrivalTape(params, seed)
    outcomes = []
    for strategy, kw in runs:
        try:
            # the tape by keyword: the benchmark's tracer reads params and strategy by position
            outcomes.append(simulate_run(params, strategy, slots, seed, trace,
                                         arrivals=arrivals, **kw))
        except Exception as e:  # reported per run; the grid keeps running
            outcomes.append((None, f"{type(e).__name__}: {e}"))
    return outcomes


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    if problems := spec.validate():
        raise ValueError("; ".join(problems))

    groups = []      # (n, t_hat, [(design, strategy) per run], its first task) per scenario
    tasks = []       # the `_run_one` arguments, per (scenario, seed)
    scenarios = []
    failures: list[dict] = []
    for n in spec.n_nodes:
        for t_hat in spec.t_hat:
            try:
                params = spec.resolve_params(n, t_hat)
            except Exception as e:
                failures.append({"n_nodes": n, "t_hat": t_hat, "error": str(e)})
                continue
            # the chooser is built once here and shipped to every ehmdp task
            ehmdp_mode = vi_result = solve_s = chooser = None
            if "ehmdp" in spec.strategies:
                try:
                    solve_start = time.perf_counter()
                    model = build_model(params)
                    if params.joint_state_count <= spec.budget:
                        vi_result = value_iteration(model)
                        solve_s = time.perf_counter() - solve_start
                        ehmdp_mode, chooser = "exact", PolicyChooser(vi_result)
                    else:
                        ehmdp_mode, chooser = "myopic", MyopicChooser(model)
                except Exception as e:   # no stand-in: the scenario has no ehmdp rows
                    failures.append({"n_nodes": n, "t_hat": t_hat,
                                     "strategy": "ehmdp", "error": str(e)})
            scenarios.append({
                "n_nodes": n, "t_hat": t_hat, "ehmdp_mode": ehmdp_mode,
                # an exact solve's figures, else None
                **{f"ehmdp_{key}": getattr(vi_result, key, None)
                   for key in ("sweeps", "residual", "fallbacks")},
                "ehmdp_states": None if vi_result is None else vi_result.values.size,
                "ehmdp_solve_s": solve_s, "params": asdict(params),
            })
            runs = []   # (design column, strategy, constructor kwargs), in spec order
            for strategy in spec.strategies:
                if strategy == "eqat":
                    runs += [(design.label, strategy, {**spec.eqat, "design": design})
                             for design in map(TxProbDesign.parse, spec.designs)]
                elif strategy != "ehmdp" or chooser is not None:
                    kw = {"ehmdp": {"chooser": chooser}, "rc": spec.rc}.get(strategy, {})
                    runs.append(("-", strategy, kw))
            groups.append((n, t_hat, [(design, strategy) for design, strategy, _ in runs],
                           len(tasks)))
            tasks += [(params, seed, spec.slots, spec.trace,
                       [(strategy, kw) for _, strategy, kw in runs]) for seed in spec.seeds]

    # a fork pool starts all its workers at the first submit, so none beyond the tasks
    if (workers := min(spec.workers, len(tasks))) > 1:
        from concurrent.futures import ProcessPoolExecutor   # only a pool needs the import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_one, tasks))
    else:
        outcomes = [_run_one(args) for args in tasks]

    raw_rows: list[dict] = []
    trace_rows: list[dict] = []
    # run r of a scenario's i-th seed is item r of its task first + i
    for n, t_hat, runs, first in groups:
        for r, (design, strategy) in enumerate(runs):
            for i, seed in enumerate(spec.seeds):
                metrics, traces = outcomes[first + i][r]
                key = dict(zip(KEY_COLUMNS, (n, t_hat, design, strategy, seed)))
                if metrics is None:
                    failures.append({**key, "error": traces})
                    continue
                raw_rows.append({**key, **asdict(metrics)})
                if traces:
                    trace_rows.extend({**key, **vars(t)} for t in traces)

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


def aggregate_rows(raw_rows: list[dict]) -> list[dict]:
    """Each `_STATS` statistic over seeds per (scenario, strategy, design)."""
    group = KEY_COLUMNS[:-1]   # the run key but the seed
    groups: dict[tuple, list[dict]] = {}
    for row in raw_rows:
        groups.setdefault(tuple(row[col] for col in group), []).append(row)

    def mean(vals):
        return sum(vals) / len(vals)

    def stderr(vals):
        if len(vals) < 2:
            return 0.0
        m = mean(vals)
        var = sum((v - m) ** 2 for v in vals) / (len(vals) - 1)
        return math.sqrt(var / len(vals))

    reduce = {"mean": mean, "stderr": stderr}
    out = []
    for key, rows in groups.items():
        agg = {**dict(zip(group, key)), "n_seeds": len(rows)}
        for name, stats in _STATS.items():
            vals = [r[name] for r in rows]
            agg.update({f"{name}_{stat}": reduce[stat](vals) for stat in stats})
        out.append(agg)
    return out


def format_csv(rows: list[dict], columns: Collection[str]) -> str:
    """Deterministic CSV text: fixed column order, repr for floats, a
    tuple's items joined by ``|``."""
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row.get(col, "")
            if isinstance(v, tuple):
                v = "|".join(map(str, v))
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
    trace = out / "traces.csv"
    if result.manifest["spec"]["trace"]:   # header only without slots
        paths["trace"] = trace
        trace.write_text(format_csv(result.trace_rows, TRACE_COLUMNS))
    else:   # an earlier traced run's, which would not match raw.csv
        trace.unlink(missing_ok=True)
    return {k: str(v) for k, v in paths.items()}


def read_agg_csv(path: str) -> list[dict]:
    """The rows of an aggregate CSV, each cell converted to its column's type;
    a ValueError names `path`, the line, and a wrong cell count or the column."""
    header, *lines = Path(path).read_text().rstrip().splitlines() or [""]
    if header.split(",") != list(AGG_COLUMNS):
        raise ValueError(f"{path}: unexpected aggregate header {header!r}")
    rows: list[dict] = []
    for line, text in enumerate(lines, 2):
        cells = text.split(",")
        if len(cells) != len(AGG_COLUMNS):
            raise ValueError(f"{path}: line {line} has {len(cells)} cells, not {len(AGG_COLUMNS)}")
        rows.append({})
        for (col, kind), cell in zip(AGG_COLUMNS.items(), cells):
            try:
                rows[-1][col] = kind(cell)
            except ValueError as e:
                raise ValueError(f"{path}: line {line}, column {col}: {e}") from None
    return rows


def report(agg_rows: list[dict]) -> dict:
    """Ordering tables per scenario and monotone-trend flags per strategy.

    Two strategies whose means are equal or differ by less than one joint
    standard error are reported as tied, not silently ordered. Each entry also
    gives the charge-only, collision and idle shares of its slots (the five
    outcome means summed) and the energy-dead share of its node-slots; 0.0 without slots.
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
            slots = sum(r[f"{name}_mean"] for name in ("successes", "ber_failures", "collisions",
                                                         "charge_only_slots", "idle_slots")) or 1.0
            tie = False
            if i > 0:
                prev = by_tp[i - 1]
                gap = abs(prev["throughput_pps_mean"] - r["throughput_pps_mean"])
                se = math.hypot(r["throughput_pps_stderr"], prev["throughput_pps_stderr"])
                tie = gap == 0 or gap < se   # equal means tie whatever their errors
            ranking.append({
                "strategy": label(r),
                "throughput_pps": r["throughput_pps_mean"],
                "loss_rate": r["loss_rate_mean"],
                "tied_with_previous": tie,
                "charge_only_share": r["charge_only_slots_mean"] / slots,
                "collision_share": r["collisions_mean"] / slots,
                "idle_share": r["idle_slots_mean"] / slots,
                "energy_dead_share": r["energy_dead_node_slots_mean"] / (slots * n),
            })
        tables.append({"n_nodes": n, "t_hat": t_hat, "by_throughput": ranking})
        lines.append(f"scenario N={n} T={t_hat}:")
        for i, entry in enumerate(ranking):
            marker = "=" if entry["tied_with_previous"] else f"{i + 1}."
            lines.append(
                f"  {marker:>2} {entry['strategy']:<18} "
                f"throughput={entry['throughput_pps']:.3f} pps "
                f"loss={entry['loss_rate']:.4f} charge-only={entry['charge_only_share']:.3f} "
                f"collision={entry['collision_share']:.3f} idle={entry['idle_share']:.3f} "
                f"energy-dead={entry['energy_dead_share']:.3f}"
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
