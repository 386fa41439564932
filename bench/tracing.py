"""Spans around the public functions of each `rwsnsim` layer.

The benchmark patches the layers from here; the program itself carries no
tracing. Each call to a wrapped function records a span (name, start, end,
parent, run id), kept in memory and written out when the run ends. Calls
made once per slot (`Strategy.select` and the EQAT hooks) would make
millions of spans, so they add their time to the enclosing
`simulator.simulate_run` span instead.

`layer_metrics` turns the spans of one traced run into the per-layer
metrics declared in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from workloads import STRATEGIES, strategy_sizes

_clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def start(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": _clock(),
            "end": None,
            "parent": self._open[-1]["id"] if self._open else None,
            "run": self.run_id,
            "attrs": {},
        }
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = _clock()
        self._open.pop()

    def add_time(self, keys: tuple[str, ...], seconds: float) -> None:
        if self._open:
            attrs = self._open[-1]["attrs"]
            for key in keys:
                attrs[key] = attrs.get(key, 0.0) + seconds


def _spanned(tracer: Tracer, orig, name: str, describe):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        span = tracer.start(name)
        try:
            out = orig(*args, **kwargs)
        finally:
            tracer.end(span)
        if describe is not None:
            span["attrs"].update(describe(args, out))
        return out

    return wrapper


def _timed(tracer: Tracer, orig, keys: tuple[str, ...]):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        t = _clock()
        try:
            return orig(*args, **kwargs)
        finally:
            tracer.add_time(keys, _clock() - t)

    return wrapper


def _model(args, model):
    params = args[0]
    return {
        "n_nodes": params.n_nodes,
        "slot_len": params.slot_len,
        "nnz": int(model.prob.size),
        # computed from array sizes, not measured
        "bytes": int(sum(a.nbytes for a in
                         (model.row_ptr, model.next_state, model.prob, model.reward))),
    }


def _solve(args, result):
    p = result.params
    return {
        "n_nodes": p.n_nodes,
        "slot_len": p.slot_len,
        "sweeps": result.sweeps,
        "residual": result.residual,
        # value_iteration's stopping rule; run_experiment leaves omega and tol
        # to the params
        "threshold": p.vi_tol * (1.0 - p.discount) / (2.0 * p.discount),
    }


def _run(args, out):
    params, strategy = args[0], args[1]
    metrics = out[0]
    return {
        "strategy": strategy,
        "n_nodes": params.n_nodes,
        "slots": metrics.slots,
        "generated": metrics.generated,
        "delivered": metrics.delivered,
    }


def install(tracer: Tracer):
    """Patch every traced entry point; returns an undo function."""
    from rwsnsim import experiments, mdp, simulator

    targets = [
        (experiments, "run_experiment", "experiments.run_experiment", None),
        (experiments, "write_outputs", "experiments.write_outputs", None),
        (experiments.ExperimentSpec, "resolve_params", "experiments.resolve_params", None),
        (experiments, "aggregate_rows", "experiments.aggregate_rows", None),
        (experiments, "draw_channel_gains", "core.draw_channel_gains", None),
        (experiments, "build_model", "mdp.build_model", _model),
        (experiments, "value_iteration", "mdp.value_iteration", _solve),
        (experiments, "simulate_run", "simulator.simulate_run", _run),
        (simulator, "energy_profiles", "energy.energy_profiles", None),
        (mdp, "energy_profiles", "energy.energy_profiles", None),
    ]
    saved = []
    for owner, attr, name, describe in targets:
        orig = owner.__dict__[attr]
        saved.append((owner, attr, orig))
        setattr(owner, attr, _spanned(tracer, orig, name, describe))

    eqat_cls = simulator.EqatStrategy
    for cls in simulator.Strategy.__subclasses__():
        hooks = [("select", ("select_s",))]
        if cls is eqat_cls:
            hooks = [("select", ("select_s", "eqat_hooks_s")),
                     ("on_outcome", ("eqat_hooks_s",)),
                     ("end_of_slot", ("eqat_hooks_s",))]
        for attr, keys in hooks:
            orig = cls.__dict__[attr]
            saved.append((cls, attr, orig))
            setattr(cls, attr, _timed(tracer, orig, keys))

    def undo():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)

    return undo


# -- per-layer metrics ----------------------------------------------------------


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {
        "mdp.build_s": "s",
        "mdp.vi_s": "s",
        "mdp.vi_ms_per_sweep": "ms",
        "mdp.vi_sweeps": "count",
        "mdp.model_nnz": "count",
        "mdp.model_bytes": "B",
        "mdp.vi_residual": "packets",
    }
    pairs = strategy_sizes()
    units.update({f"simulator.slots_per_s.{s}.n{n}": "1/s" for s, n in pairs})
    units["simulator.run_s.p50"] = "s"
    units["simulator.run_s.p90"] = "s"
    units.update({f"simulator.select_share.{s}": "ratio" for s in STRATEGIES})
    units.update({f"simulator.delivered_ratio.{s}.n{n}": "ratio" for s, n in pairs})
    units["eqat.hook_share"] = "ratio"
    for phase in ("resolve", "solve", "simulate", "aggregate", "write", "self"):
        units[f"experiments.{phase}_s"] = "s"
    units["experiments.serial_share"] = "ratio"
    units["energy.profiles_calls"] = "count"
    units["energy.profiles_s"] = "s"
    units["core.arrivals_per_slot_calls"] = "count"
    return units


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-th percentile (0 for no values)."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def solves(spans: list[dict]) -> list[dict]:
    """The attributes of every value-iteration call, in call order."""
    return [s["attrs"] for s in spans if s["name"] == "mdp.value_iteration"]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run, except the profiled call count.

    A metric of a layer or a (strategy, N) pair the workload does not
    exercise is 0: no time spent, nothing counted.
    """
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def total(name):
        return sum(_dur(s) for s in by[name])

    runs = by["simulator.simulate_run"]
    m: dict[str, float] = {}

    builds, vis = by["mdp.build_model"], by["mdp.value_iteration"]
    sweeps = sum(s["attrs"]["sweeps"] for s in vis)
    m["mdp.build_s"] = total("mdp.build_model")
    m["mdp.vi_s"] = total("mdp.value_iteration")
    m["mdp.vi_ms_per_sweep"] = 1000.0 * _ratio(m["mdp.vi_s"], sweeps)
    m["mdp.vi_sweeps"] = sweeps
    m["mdp.model_nnz"] = sum(s["attrs"]["nnz"] for s in builds)
    m["mdp.model_bytes"] = max((s["attrs"]["bytes"] for s in builds), default=0)
    m["mdp.vi_residual"] = max((s["attrs"]["residual"] for s in vis), default=0.0)

    def runs_of(strategy, n=None):
        return [r for r in runs if r["attrs"]["strategy"] == strategy
                and (n is None or r["attrs"]["n_nodes"] == n)]

    for s, n in strategy_sizes():
        rs = runs_of(s, n)
        m[f"simulator.slots_per_s.{s}.n{n}"] = _ratio(
            sum(r["attrs"]["slots"] for r in rs), sum(_dur(r) for r in rs))
    durations = [_dur(r) for r in runs]
    m["simulator.run_s.p50"] = percentile(durations, 50)
    m["simulator.run_s.p90"] = percentile(durations, 90)
    for s in STRATEGIES:
        rs = runs_of(s)
        m[f"simulator.select_share.{s}"] = _ratio(
            sum(r["attrs"].get("select_s", 0.0) for r in rs), sum(_dur(r) for r in rs))
    for s, n in strategy_sizes():
        rs = runs_of(s, n)
        m[f"simulator.delivered_ratio.{s}.n{n}"] = _ratio(
            sum(r["attrs"]["delivered"] for r in rs), sum(r["attrs"]["generated"] for r in rs))
    eq = runs_of("eqat")
    m["eqat.hook_share"] = _ratio(
        sum(r["attrs"].get("eqat_hooks_s", 0.0) for r in eq), sum(_dur(r) for r in eq))

    simulate_s = total("simulator.simulate_run")
    m["experiments.resolve_s"] = total("experiments.resolve_params")
    m["experiments.solve_s"] = m["mdp.build_s"] + m["mdp.vi_s"]
    m["experiments.simulate_s"] = simulate_s
    m["experiments.aggregate_s"] = total("experiments.aggregate_rows")
    m["experiments.write_s"] = total("experiments.write_outputs")
    top = {s["id"] for s in by["experiments.run_experiment"]}
    child_s = sum(_dur(s) for s in spans if s["parent"] in top)
    m["experiments.self_s"] = total("experiments.run_experiment") - child_s
    wall = total("experiments.run_experiment") + m["experiments.write_s"]
    m["experiments.serial_share"] = _ratio(wall - simulate_s, wall)

    m["energy.profiles_calls"] = len(by["energy.energy_profiles"])
    m["energy.profiles_s"] = total("energy.energy_profiles")
    return m
