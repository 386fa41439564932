"""Grid runner, CSV/manifest determinism, and the report op."""

import concurrent.futures
import inspect
import json
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

from rwsnsim import energy, experiments
from rwsnsim.core import NetworkParams, draw_channel_gains
from rwsnsim.eqat import TxProbDesign
from rwsnsim.experiments import (
    _SPEC_SCHEMA,
    AGG_COLUMNS,
    RAW_COLUMNS,
    ExperimentSpec,
    aggregate_rows,
    format_csv,
    read_agg_csv,
    report,
    run_experiment,
    spec_from_config,
    write_outputs,
)
from rwsnsim.mdp import MyopicChooser, ValueIterationError, build_model
from rwsnsim.simulator import (STRATEGIES, EqatStrategy, FixedTableStrategy, make_strategy,
                               simulate_run)


def tiny_spec(**kw):
    kw.setdefault("n_nodes", [2])
    kw.setdefault("t_hat", [10])
    kw.setdefault("strategies", ["rs"])
    kw.setdefault("slots", 200)
    kw.setdefault("seeds", [0])
    kw.setdefault("network", {"battery_levels": 2, "queue_cap": 2})
    return ExperimentSpec(**kw)


class TestRunExperiment:
    def test_single_point_single_seed(self):
        res = run_experiment(tiny_spec())
        assert len(res.raw_rows) == 1
        assert len(res.agg_rows) == 1
        assert res.failures == []
        row = res.raw_rows[0]
        assert set(RAW_COLUMNS) <= set(row)
        assert row["generated"] == row["delivered"] + row["dropped"] + row["in_queue_final"]

    def test_interval_sweep_rows(self):
        res = run_experiment(tiny_spec(t_hat=[10, 20, 30, 40], strategies=["fq", "rs"],
                                       seeds=[0, 1]))
        assert len(res.raw_rows) == 4 * 2 * 2
        assert len(res.agg_rows) == 4 * 2
        for strategy in ("fq", "rs"):
            assert sum(1 for r in res.agg_rows if r["strategy"] == strategy) == 4

    def test_eqat_expands_per_design(self):
        res = run_experiment(tiny_spec(strategies=["eqat", "rs"],
                                       designs=["sigmoid", "exp:0.5"]))
        eqat_rows = [r for r in res.raw_rows if r["strategy"] == "eqat"]
        assert {r["design"] for r in eqat_rows} == {"sigmoid", "exp:0.5"}
        rs_rows = [r for r in res.raw_rows if r["strategy"] == "rs"]
        assert len(rs_rows) == 1 and rs_rows[0]["design"] == "-"

    def test_design_column_is_the_parsed_label_however_spelt(self):
        res = run_experiment(tiny_spec(strategies=["eqat"], designs=[" EXP:1:0.05"]))
        assert [r["design"] for r in res.raw_rows] == ["exp:1:0.05"]
        assert [r["design"] for r in res.agg_rows] == ["exp:1:0.05"]

    def test_near_designs_keep_apart(self):
        # both print as exp:0.123457 under :g; they are two designs, so two keys
        spec = tiny_spec(strategies=["eqat"], designs=["exp:0.1234567", "exp:0.1234568"])
        assert spec.validate() == []
        res = run_experiment(spec)
        assert [r["design"] for r in res.agg_rows] == ["exp:0.1234567", "exp:0.1234568"]

    def test_ehmdp_exact_within_budget_and_myopic_above(self):
        # the manifest is the mode's one record
        spec = tiny_spec(strategies=["ehmdp"], n_nodes=[2])
        res = run_experiment(spec)
        assert res.manifest["scenarios"][0]["ehmdp_mode"] == "exact"
        res = run_experiment(replace(spec, budget=5))
        assert res.manifest["scenarios"][0]["ehmdp_mode"] == "myopic"
        assert res.manifest["scenarios"][0]["ehmdp_states"] is None
        # the least valid budget (a negative one is refused) forces myopic mode
        res = run_experiment(replace(spec, budget=0))
        assert res.failures == [] and res.manifest["scenarios"][0]["ehmdp_mode"] == "myopic"

    def test_failed_solve_runs_no_stand_in(self, monkeypatch):
        # N=2 is inside the budget; its solve fails, so the scenario has one
        # failure row and no ehmdp rows, and the other strategies run as before
        spec = tiny_spec(strategies=["ehmdp", "fq"], seeds=[0, 1])
        clean = run_experiment(spec)

        def no_solve(model):
            raise ValueIterationError("diverged")

        monkeypatch.setattr(experiments, "value_iteration", no_solve)
        res = run_experiment(spec)
        assert res.failures == [{"n_nodes": 2, "t_hat": 10, "strategy": "ehmdp",
                                 "error": "diverged"}]
        assert [r["strategy"] for r in res.raw_rows] == ["fq", "fq"]
        assert res.raw_rows == [r for r in clean.raw_rows if r["strategy"] == "fq"]
        (scenario,) = res.manifest["scenarios"]
        assert scenario["ehmdp_mode"] is None and scenario["ehmdp_sweeps"] is None
        assert scenario["ehmdp_states"] is None
        (table,) = report(res.agg_rows)["tables"]
        assert [entry["strategy"] for entry in table["by_throughput"]] == ["fq"]

        # myopic mode: a model that cannot be built fails its scenario the same
        # way, once, rather than the whole grid
        def no_model(params):
            raise OverflowError("too many arrivals")

        monkeypatch.setattr(experiments, "build_model", no_model)
        res = run_experiment(replace(spec, budget=0))
        assert res.failures == [{"n_nodes": 2, "t_hat": 10, "strategy": "ehmdp",
                                 "error": "too many arrivals"}]
        assert res.raw_rows == [r for r in clean.raw_rows if r["strategy"] == "fq"]
        (scenario,) = res.manifest["scenarios"]
        assert scenario["ehmdp_mode"] is None and scenario["ehmdp_states"] is None

    def test_infeasible_point_reported_run_continues(self):
        # 256-bit packets at order 1 and 30 kHz: t_hat=10 gives 10 ms * 30 kHz
        # = 300 bits per slot and fits; t_hat=1 gives 30 bits and cannot fit
        spec = tiny_spec(t_hat=[10, 1], strategies=["fq"], seeds=[0, 1],
                         network={"battery_levels": 2, "queue_cap": 2,
                                  "bandwidth": 30e3, "max_modulation": 1})
        res = run_experiment(spec)
        assert len(res.failures) == 1  # once for the scenario, not once per seed
        assert "t_hat" in res.failures[0] and res.failures[0]["t_hat"] == 1
        assert len(res.raw_rows) == 2  # the feasible point still ran, both seeds

    def test_manifest_records_the_solve(self):
        # 9 local states: N=2 has 81 joint states, inside the budget; N=3 has 729
        spec = tiny_spec(strategies=["ehmdp", "rs"], n_nodes=[2, 3], budget=100)
        res = run_experiment(spec)
        exact, myopic = res.manifest["scenarios"]
        assert exact["ehmdp_mode"] == "exact"
        assert isinstance(exact["ehmdp_sweeps"], int) and exact["ehmdp_sweeps"] > 0
        p = exact["params"]
        assert 0.0 < exact["ehmdp_residual"] < p["vi_tol"] * (1 - p["discount"]) / (2 * p["discount"])
        assert isinstance(exact["ehmdp_fallbacks"], int)
        assert 0 <= exact["ehmdp_fallbacks"] < exact["ehmdp_sweeps"]
        assert isinstance(exact["ehmdp_solve_s"], float) and exact["ehmdp_solve_s"] > 0.0
        # the solve holds the battery levels a run reaches: only the full one here
        assert exact["ehmdp_states"] == 3 ** 2
        assert myopic["ehmdp_mode"] == "myopic"
        assert myopic["ehmdp_sweeps"] is None and myopic["ehmdp_residual"] is None
        assert myopic["ehmdp_fallbacks"] is None and myopic["ehmdp_solve_s"] is None
        assert myopic["ehmdp_states"] is None
        # deterministic: a rerun reproduces the manifest, all but the wall time
        rerun = run_experiment(spec).manifest
        for manifest in (rerun, res.manifest):
            for scenario in manifest["scenarios"]:
                scenario.pop("ehmdp_solve_s")
        assert rerun == res.manifest

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            run_experiment(tiny_spec(seeds=[]))
        with pytest.raises(ValueError):
            run_experiment(tiny_spec(strategies=["vaporware"]))

    def test_strategy_overrides_checked_by_their_constructors(self):
        # an unknown keyword is a problem too, named by its section
        problems = tiny_spec(eqat={"alpha": -0.5}, rc={"contention": 0.5}).validate()
        assert len(problems) == 2
        assert problems[0].startswith("[eqat] alpha")
        assert problems[1].startswith("[rc] ") and "contention" in problems[1]
        # a fractional backoff window is refused once, by its declared type,
        # before the constructor compares it
        assert tiny_spec(eqat={"backoff_window": 2.5}).validate() == [
            "[eqat] backoff_window: expected int, got 2.5"]

    def test_unknown_override_keys_refused_once_before_any_task(self, monkeypatch):
        # two scenarios: each bad set is named once, not once per scenario;
        # n_nodes and slot_len, which the grid sets, and the eqat design,
        # which designs sets, are refused too
        def no_task(args):
            raise AssertionError("a task ran")

        monkeypatch.setattr(experiments, "_run_one", no_task)
        spec = tiny_spec(n_nodes=[2, 3], strategies=["eqat"],
                         network={"n_nodes": 7, "slot_len": 1.0, "bogus": 1},
                         channel={"bogus": 1}, eqat={"design": TxProbDesign.parse("exp:3")})
        with pytest.raises(ValueError) as exc:
            run_experiment(spec)
        assert str(exc.value) == ("[network] unknown keys: bogus, n_nodes, slot_len; "
                                  "[channel] unknown keys: bogus; [eqat] unknown keys: design")

    def test_wrong_typed_override_refused_once_before_any_task(self, monkeypatch):
        def no_task(args):
            raise AssertionError("a task ran")

        monkeypatch.setattr(experiments, "_run_one", no_task)
        spec = tiny_spec(n_nodes=[2, 3], strategies=["fq"], slots=10,
                         network={"queue_cap": "3"})
        with pytest.raises(ValueError) as exc:
            run_experiment(spec)
        assert str(exc.value) == "[network] queue_cap: expected int, got '3'"

    @pytest.mark.parametrize("kw,message", [
        ({"network": {"queue_cap": True}}, "[network] queue_cap: expected int, got True"),
        ({"network": {"channel_gain": ["x", "y"]}},
         "[network] channel_gain: expected tuple[float, ...] | None, got ['x', 'y']"),
        ({"eqat": {"alpha": True}}, "[eqat] alpha: expected float, got True"),
        ({"slots": "10"}, "[experiment] slots: expected int, got '10'"),
        ({"workers": 2.0}, "[experiment] workers: expected int, got 2.0"),
        ({"seeds": [0.5]}, "[experiment] seeds: expected list[int], got [0.5]"),
    ])
    def test_value_not_of_its_declared_type_refused_once_before_any_task(self, monkeypatch,
                                                                          kw, message):
        # a bool is refused for an int or a float, and a list's elements are
        # checked; two scenarios, and the value is named once
        def no_task(args):
            raise AssertionError("a task ran")

        monkeypatch.setattr(experiments, "_run_one", no_task)
        spec = tiny_spec(**{"n_nodes": [2, 3], "strategies": ["eqat"], **kw})
        assert spec.validate() == [message]
        with pytest.raises(ValueError) as exc:
            run_experiment(spec)
        assert str(exc.value) == message

    def test_override_of_a_wider_accepted_type_valid(self):
        # an int for a float, a list for the gains and None for an optional,
        # as a manifest's JSON gives them back
        spec = tiny_spec(network={"bs_power": 2, "channel_gain": [1.0, 0.5],
                                  "initial_battery": None})
        assert spec.validate() == []
        assert run_experiment(spec).failures == []

    def test_float_for_an_int_override_refused(self):
        assert tiny_spec(channel={"seed": 1.5}).validate() == [
            "[channel] seed: expected int, got 1.5"]
        assert tiny_spec(network={"queue_cap": 2.0, "battery_levels": 2}).validate() == [
            "[network] queue_cap: expected int, got 2.0"]

    def test_worker_pool_matches_sequential(self):
        # N=2 has 81 joint states and N=3 729, so under a budget of 100 ehmdp
        # is exact at N=2 and myopic at N=3: both kinds of pickled chooser
        # cross to the workers
        strategies = ["rs", "rc", "ehmdp", "eqat"]
        spec1 = tiny_spec(strategies=strategies, seeds=[0, 1], n_nodes=[2, 3], budget=100)
        spec2 = tiny_spec(strategies=strategies, seeds=[0, 1], n_nodes=[2, 3], budget=100,
                          workers=2)
        serial, pooled = run_experiment(spec1), run_experiment(spec2)
        assert [s["ehmdp_mode"] for s in serial.manifest["scenarios"]] == ["exact", "myopic"]
        assert {(r["n_nodes"], r["strategy"]) for r in serial.raw_rows} == {
            (n, s) for n in (2, 3) for s in strategies}
        assert serial.failures == pooled.failures == []
        assert serial.raw_rows == pooled.raw_rows

    def test_pool_never_outgrows_its_tasks(self, monkeypatch):
        # a fake pool that maps in process and records its size: no process starts
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        two = run_experiment(tiny_spec(seeds=[0, 1], workers=64))   # one task per seed
        assert sizes == [2]
        assert two.manifest["spec"]["workers"] == 64
        one = run_experiment(tiny_spec(workers=4))
        assert sizes == [2]   # one task runs in process
        assert one.raw_rows == run_experiment(tiny_spec()).raw_rows

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_run_that_raises_fails_alone_in_its_group(self, monkeypatch, workers):
        # rc raises halfway through seed 1, after the group's tape was drawn;
        # rs, which runs after it on that tape, and every other run keep their
        # rows, in grid order, whether the tasks ran in process or on the pool
        spec = tiny_spec(strategies=["fq", "rc", "rs"], seeds=[0, 1, 2], workers=workers)
        clean = run_experiment(replace(spec, workers=1))
        select = FixedTableStrategy.select   # rc's: the EQAT loop's

        def flaky(self, sim):
            if sim.arrivals.key[0] == 1 and sim.slot == 100:
                raise RuntimeError("boom")
            return select(self, sim)

        monkeypatch.setattr(FixedTableStrategy, "select", flaky)
        res = run_experiment(spec)
        assert res.failures == [{"n_nodes": 2, "t_hat": 10, "design": "-", "strategy": "rc",
                                 "seed": 1, "error": "RuntimeError: boom"}]
        assert res.raw_rows == [r for r in clean.raw_rows if (r["strategy"], r["seed"]) != ("rc", 1)]

    def test_grid_sizes_below_one_refused_once_per_field(self):
        assert ExperimentSpec(n_nodes=[-1, 0], t_hat=[0]).validate() == [
            "n_nodes must be >= 1", "t_hat must be >= 1"]

    def test_network_problem_of_every_point_refused_once(self):
        # a 2 x 2 grid: a problem every point's params have is refused before
        # any scenario, in the first point's order; one of some points is not
        spec = tiny_spec(n_nodes=[2, 3], t_hat=[10, 20],
                         network={"bs_power": -1.0, "arrival_prob": 2.0, "bandwidth": 20e3,
                                  "max_modulation": 1})
        assert spec.validate() == ["bs_power must be non-negative and finite",
                                   "arrival_prob must lie in [0, 1]"]
        # a 10 ms slot holds 200 bits at 20 kHz, too few; a 20 ms slot holds 400
        spec = replace(spec, network={"bandwidth": 20e3, "max_modulation": 1})
        assert spec.validate() == []
        res = run_experiment(spec)
        assert [(f["n_nodes"], f["t_hat"]) for f in res.failures] == [(2, 10), (3, 10)]

    def test_one_worker_grid_computes_each_scenarios_profiles_once(self, monkeypatch):
        calls = []
        build = energy.node_energy_profile

        def counted(params, node):
            calls.append((params.n_nodes, params.slot_len))
            return build(params, node)

        monkeypatch.setattr(energy, "node_energy_profile", counted)
        energy.energy_profiles.cache_clear()   # earlier tests may hold these networks
        # N=2 solved exactly, N=3 myopic, and every other strategy on both
        spec = tiny_spec(n_nodes=[2, 3], t_hat=[10, 20], strategies=list(STRATEGIES),
                         seeds=[0, 1], budget=100)
        assert run_experiment(spec).failures == []
        assert sorted(calls) == sorted((n, t * spec.minislot_len) for n in (2, 3)
                                       for t in (10, 20) for _ in range(n))

    def test_repeated_grid_values_refused_once_per_field(self):
        spec = tiny_spec(n_nodes=[2, 3, 2, 2], t_hat=[10, 10], strategies=["fq", "eqat", "fq"],
                         designs=["sigmoid", "exp:1:0.05", "sigmoid"], seeds=[0, 0, 1, 2, 1])
        assert spec.validate() == [
            "repeated n_nodes: [2]", "repeated t_hat: [10]", "repeated strategies: ['fq']",
            "repeated designs: ['sigmoid']", "repeated seeds: [0, 1]"]
        # one design spelt three ways, which would run the same controller three times
        respelt = tiny_spec(strategies=["eqat"],
                            designs=["exp:0.05", "sigmoid", "EXP:0.05:0.05", " exp:0.05"])
        assert respelt.validate() == ["repeated designs: ['exp:0.05', 'EXP:0.05:0.05', ' exp:0.05']"]

    def test_shipped_myopic_chooser_gives_the_rows_of_one_built_per_run(self):
        # two workers: the scenario's chooser crosses to them pickled
        spec = tiny_spec(strategies=["ehmdp"], n_nodes=[3], budget=100, seeds=[0, 1], workers=2)
        res = run_experiment(spec)
        assert res.manifest["scenarios"][0]["ehmdp_mode"] == "myopic"
        params = spec.resolve_params(3, 10)
        for row in res.raw_rows:
            m, _ = simulate_run(params, "ehmdp", spec.slots, row["seed"],
                                chooser=MyopicChooser(build_model(params)))
            assert (row["generated"], row["delivered"], row["dropped"]) == (
                m.generated, m.delivered, m.dropped)

    def test_nan_vi_tol_fails_before_any_sweep(self, monkeypatch):
        def no_solve(model):
            raise AssertionError("value_iteration ran")

        monkeypatch.setattr(experiments, "value_iteration", no_solve)
        spec = tiny_spec(strategies=["ehmdp"],
                         network={"battery_levels": 2, "queue_cap": 2, "vi_tol": float("nan")})
        with pytest.raises(ValueError, match="^vi_tol must be positive and finite$"):
            spec.resolve_params(2, 10)
        # the grid's one point: the problem is the whole spec's, refused once
        with pytest.raises(ValueError, match="^vi_tol must be positive and finite$"):
            run_experiment(spec)

    def test_trace_rows_gated(self):
        assert run_experiment(tiny_spec()).trace_rows == []
        res = run_experiment(tiny_spec(trace=True, slots=50))
        assert len(res.trace_rows) == 50

    def test_traces_file_follows_the_spec(self, tmp_path):
        # a traced spec writes traces.csv, header only without slots; an
        # untraced one into the same directory removes it
        traced = write_outputs(run_experiment(tiny_spec(trace=True, slots=5)), str(tmp_path))
        assert len((tmp_path / "traces.csv").read_text().splitlines()) == 1 + 5
        assert traced["trace"] == str(tmp_path / "traces.csv")
        untraced = write_outputs(run_experiment(tiny_spec(n_nodes=[3])), str(tmp_path))
        assert "trace" not in untraced and not (tmp_path / "traces.csv").exists()
        empty = write_outputs(run_experiment(tiny_spec(trace=True, slots=0)), str(tmp_path))
        assert Path(empty["trace"]).read_text() == ",".join(experiments.TRACE_COLUMNS) + "\n"

    def test_file_headers(self, tmp_path):
        # the columns are read off RunMetrics and SlotTrace: a change to
        # either record changes the file formats, and must change this test
        write_outputs(run_experiment(tiny_spec(trace=True, slots=5)), str(tmp_path))
        head = {name: (tmp_path / name).read_text().splitlines()[0]
                for name in ("raw.csv", "aggregate.csv", "traces.csv")}
        assert head == {
            "raw.csv": "n_nodes,t_hat,design,strategy,seed,slots,generated,delivered,dropped,"
                       "in_queue_final,throughput_pps,loss_rate,successes,ber_failures,"
                       "collisions,charge_only_slots,idle_slots,energy_dead_node_slots",
            "aggregate.csv": "n_nodes,t_hat,design,strategy,n_seeds,generated_mean,"
                             "delivered_mean,dropped_mean,in_queue_final_mean,"
                             "throughput_pps_mean,throughput_pps_stderr,loss_rate_mean,"
                             "loss_rate_stderr,successes_mean,ber_failures_mean,"
                             "collisions_mean,charge_only_slots_mean,idle_slots_mean,"
                             "energy_dead_node_slots_mean",
            "traces.csv": "n_nodes,t_hat,design,strategy,seed,slot,outcome,transmitters,"
                          "batteries,queues",
        }

    def test_aggregate_is_the_mean_and_sample_stderr_over_seeds(self):
        def raw(strategy, seed, generated, delivered, dropped, in_queue, tp, loss, ber, dead):
            # 100 slots: a success per delivered packet, `ber` failures, the rest idle
            return {"n_nodes": 2, "t_hat": 10, "design": "-", "strategy": strategy,
                    "seed": seed, "slots": 100, "generated": generated, "delivered": delivered,
                    "dropped": dropped, "in_queue_final": in_queue, "throughput_pps": tp,
                    "loss_rate": loss, "successes": delivered, "ber_failures": ber,
                    "collisions": 0, "charge_only_slots": 0, "idle_slots": 100 - delivered - ber,
                    "energy_dead_node_slots": dead}

        rows = aggregate_rows([raw("fq", 0, 10, 6, 1, 3, 1.0, 0.1, 1, 0),
                               raw("rs", 0, 7, 5, 0, 2, 4.5, 0.25, 0, 4),
                               raw("fq", 1, 12, 9, 2, 1, 2.0, 0.2, 2, 10),
                               raw("fq", 2, 14, 12, 0, 2, 3.0, 0.6, 6, 20)])
        assert rows == [
            {"n_nodes": 2, "t_hat": 10, "design": "-", "strategy": "fq", "n_seeds": 3,
             "generated_mean": 12.0, "delivered_mean": 9.0, "dropped_mean": 1.0,
             "in_queue_final_mean": 2.0,
             "throughput_pps_mean": 2.0, "throughput_pps_stderr": pytest.approx((1 / 3) ** 0.5),
             "loss_rate_mean": pytest.approx(0.3),
             "loss_rate_stderr": pytest.approx((0.14 / 2 / 3) ** 0.5),
             "successes_mean": 9.0, "ber_failures_mean": 3.0, "collisions_mean": 0.0,
             "charge_only_slots_mean": 0.0, "idle_slots_mean": 88.0,
             "energy_dead_node_slots_mean": 10.0},
            {"n_nodes": 2, "t_hat": 10, "design": "-", "strategy": "rs", "n_seeds": 1,
             "generated_mean": 7.0, "delivered_mean": 5.0, "dropped_mean": 0.0,
             "in_queue_final_mean": 2.0,
             "throughput_pps_mean": 4.5, "throughput_pps_stderr": 0.0,
             "loss_rate_mean": 0.25, "loss_rate_stderr": 0.0,
             "successes_mean": 5.0, "ber_failures_mean": 0.0, "collisions_mean": 0.0,
             "charge_only_slots_mean": 0.0, "idle_slots_mean": 95.0,
             "energy_dead_node_slots_mean": 4.0},
        ]
        assert [list(row) for row in rows] == [list(AGG_COLUMNS)] * 2


# Every raw row of `GOLDEN_SPEC`, every column. A change that moves a number
# must change these rows on purpose.
GOLDEN_SPEC = dict(n_nodes=[2, 10], t_hat=[10], slots=300, seeds=[0, 1])
GOLDEN_ROWS = [
    (2, 10, "-", "ehmdp", 0, 300, 160, 159, 0, 1, 53.0, 0.0, 159, 12, 0, 129, 0, 0),
    (2, 10, "-", "ehmdp", 1, 300, 182, 181, 0, 1, 60.333333333333336, 0.0, 181, 27, 0, 92, 0, 0),
    (2, 10, "-", "fq", 0, 300, 160, 159, 0, 1, 53.0, 0.0, 159, 12, 0, 129, 0, 0),
    (2, 10, "-", "fq", 1, 300, 182, 181, 0, 1, 60.333333333333336, 0.0, 181, 27, 0, 92, 0, 0),
    (2, 10, "-", "rs", 0, 300, 160, 159, 0, 1, 53.0, 0.0, 159, 12, 0, 0, 129, 0),
    (2, 10, "-", "rs", 1, 300, 182, 181, 0, 1, 60.333333333333336, 0.0, 181, 27, 0, 0, 92, 0),
    (2, 10, "exp:1:0.05", "eqat", 0, 300, 160, 87, 67, 6, 29.0, 0.41875, 87, 5, 3, 0, 205, 258),
    (2, 10, "exp:1:0.05", "eqat", 1, 300, 182, 96, 80, 6, 32.0, 0.43956043956043955,
     96, 14, 3, 0, 187, 276),
    (2, 10, "-", "dfq", 0, 300, 160, 75, 74, 11, 25.0, 0.4625, 75, 5, 2, 0, 218, 268),
    (2, 10, "-", "dfq", 1, 300, 182, 85, 86, 11, 28.333333333333332, 0.4725274725274725,
     85, 13, 2, 0, 200, 270),
    (2, 10, "-", "rc", 0, 300, 160, 83, 71, 6, 27.666666666666668, 0.44375, 83, 5, 2, 0, 210, 286),
    (2, 10, "-", "rc", 1, 300, 182, 99, 77, 6, 33.0, 0.4230769230769231, 99, 15, 2, 0, 184, 271),
    (10, 10, "-", "ehmdp", 0, 300, 894, 272, 564, 58, 90.66666666666667, 0.6308724832214765,
     272, 27, 0, 1, 0, 0),
    (10, 10, "-", "ehmdp", 1, 300, 919, 263, 598, 58, 87.66666666666667, 0.6507072905331882,
     263, 36, 0, 1, 0, 0),
    (10, 10, "-", "fq", 0, 300, 894, 272, 564, 58, 90.66666666666667, 0.6308724832214765,
     272, 27, 0, 1, 0, 0),
    (10, 10, "-", "fq", 1, 300, 919, 263, 598, 58, 87.66666666666667, 0.6507072905331882,
     263, 36, 0, 1, 0, 0),
    (10, 10, "-", "rs", 0, 300, 894, 272, 565, 57, 90.66666666666667, 0.6319910514541387,
     272, 27, 0, 0, 1, 0),
    (10, 10, "-", "rs", 1, 300, 919, 263, 598, 58, 87.66666666666667, 0.6507072905331882,
     263, 36, 0, 0, 1, 0),
    (10, 10, "exp:1:0.05", "eqat", 0, 300, 894, 94, 746, 54, 31.333333333333332, 0.8344519015659956,
     94, 5, 11, 0, 190, 2586),
    (10, 10, "exp:1:0.05", "eqat", 1, 300, 919, 95, 769, 55, 31.666666666666668, 0.8367791077257889,
     95, 14, 11, 0, 180, 2580),
    (10, 10, "-", "dfq", 0, 300, 894, 91, 743, 60, 30.333333333333332, 0.831096196868009,
     91, 5, 9, 0, 195, 2449),
    (10, 10, "-", "dfq", 1, 300, 919, 88, 771, 60, 29.333333333333332, 0.8389553862894451,
     88, 13, 8, 0, 191, 2472),
    (10, 10, "-", "rc", 0, 300, 894, 85, 754, 55, 28.333333333333332, 0.843400447427293,
     85, 5, 7, 0, 203, 2641),
    (10, 10, "-", "rc", 1, 300, 919, 88, 776, 55, 29.333333333333332, 0.8443960826985855,
     88, 13, 7, 0, 192, 2647),
]

# A traced run on the scarce network at N=2, where lone transmitters cross
# their transmit cost both ways: its raw rows, and per strategy each slot's
# outcome (first letter).
TRACED_SPEC = dict(n_nodes=[2], t_hat=[10], strategies=["ehmdp", "fq", "eqat"], slots=60,
                   seeds=[0], trace=True, network={"bs_power": 1.0})
TRACED_RAW_ROWS = [
    (2, 10, "-", "ehmdp", 0, 60, 32, 31, 0, 1, 51.66666666666667, 0.0,
     31, 1, 0, 28, 0, 2),
    (2, 10, "-", "fq", 0, 60, 32, 29, 0, 3, 48.333333333333336, 0.0,
     29, 1, 0, 30, 0, 41),
    (2, 10, "exp:1:0.05", "eqat", 0, 60, 32, 19, 7, 6, 31.666666666666668, 0.21875,
     19, 0, 0, 0, 41, 51),
]
TRACED_SLOTS = {
    "ehmdp": "issiissssiissiisisiiiiiisssssississsiisiisiiisisisisisissbss",
    "fq": "isssiississsisiiisiiiiiissisisissssisissisiiisisisiissisisib",
    "eqat": "iiisssississiiiiiiisiiiiissiiisisissiiiiiiiiiissisiiisiiisii",
}


class TestGoldenRows:
    def test_raw_rows_pinned(self):
        res = run_experiment(ExperimentSpec(**GOLDEN_SPEC))
        assert res.failures == []
        assert [tuple(row[c] for c in RAW_COLUMNS) for row in res.raw_rows] == GOLDEN_ROWS

    def test_traced_run_pinned(self):
        res = run_experiment(ExperimentSpec(**TRACED_SPEC))
        assert res.failures == []
        assert [tuple(row[c] for c in RAW_COLUMNS) for row in res.raw_rows] == TRACED_RAW_ROWS

        def slots(strategy):
            return "".join(row["outcome"][0] for row in res.trace_rows
                           if row["strategy"] == strategy)

        assert {s: slots(s) for s in TRACED_SPEC["strategies"]} == TRACED_SLOTS


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        spec = tiny_spec(strategies=["rs", "eqat"], seeds=[0, 1, 2])
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert format_csv(a.agg_rows, AGG_COLUMNS) == format_csv(b.agg_rows, AGG_COLUMNS)
        assert a.manifest == b.manifest

    def test_manifest_round_trip(self, tmp_path):
        spec = tiny_spec(strategies=["rs"], seeds=[0, 1])
        res = run_experiment(spec)
        out = write_outputs(res, str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        spec2 = ExperimentSpec(**manifest["spec"])
        res2 = run_experiment(spec2)
        assert res2.manifest["scenarios"] == res.manifest["scenarios"]
        assert (tmp_path / "aggregate.csv").read_text() == format_csv(res2.agg_rows, AGG_COLUMNS)
        assert set(out) == {"raw", "aggregate", "manifest"}

    def test_agg_csv_round_trip(self, tmp_path):
        res = run_experiment(tiny_spec(seeds=[0, 1]))
        write_outputs(res, str(tmp_path))
        rows = read_agg_csv(str(tmp_path / "aggregate.csv"))
        # whole rows, in column order, each cell of the type it was written with
        assert [[(k, type(v), v) for k, v in row.items()] for row in rows] == [
            [(k, type(v), v) for k, v in row.items()] for row in res.agg_rows]


class TestConfigFile:
    def test_spec_from_config(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[network]\n"
            "arrival_prob = 0.25\n"
            "battery_levels = 3\n"
            "[experiment]\n"
            "n_nodes = 2, 3\n"
            "t_hat = 10-12\n"
            "strategies = fq, rs\n"
            "designs = sigmoid\n"
            "slots = 100\n"
            "seeds = 0-2\n"
            "[rc]\n"
            "contention_prob = 0.4\n"
            "[eqat]\n"
            "alpha = 0.7\n"
        )
        spec = spec_from_config(str(cfg))
        assert spec.n_nodes == [2, 3]
        assert spec.t_hat == [10, 11, 12]
        assert spec.seeds == [0, 1, 2]
        assert spec.strategies == ["fq", "rs"]
        assert spec.network["arrival_prob"] == 0.25
        assert spec.rc["contention_prob"] == 0.4
        assert spec.eqat["alpha"] == 0.7

    def test_network_section_resolves_to_params(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\n"
            "n_nodes = 3\n"
            "[network]\n"
            "arrival_prob = 0.25\n"
            "battery_levels = 4\n"
            "battery_quantum = 2e-3\n"
            "channel_gain = 1.0, 0.5, 0.25\n"
        )
        p = spec_from_config(str(cfg)).resolve_params(3, 10)
        assert p.n_nodes == 3
        assert p.arrival_prob == 0.25
        assert p.channel_gain == (1.0, 0.5, 0.25)
        assert (p.battery_levels, p.battery_quantum) == (4, 2e-3)

    def test_channel_seed_sets_the_gain_draw(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nn_nodes = 4\n\n[channel]\nseed = 11\n")
        p = spec_from_config(str(cfg)).resolve_params(4, 10)
        assert len(p.channel_gain) == 4
        assert p.channel_gain == draw_channel_gains(4, seed=11)

    def test_missing_config(self):
        with pytest.raises(FileNotFoundError):
            spec_from_config("/nonexistent.ini")

    def test_unknown_entries_rejected(self, tmp_path):
        # n_nodes and slot_len come from [experiment]; in [network] they
        # would be ignored, so they are refused like a typo
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nstrategy = fq\n[netwrok]\narrival_prob = 0.1\n"
                       "[network]\nn_nodes = 3\nslot_len = 0.02\n")
        with pytest.raises(ValueError) as exc:
            spec_from_config(str(cfg))
        msg = str(exc.value)
        for entry in ("[experiment] strategy", "[netwrok]", "[network] n_nodes",
                      "[network] slot_len"):
            assert entry in msg


# every [network], [channel], [eqat] and [rc] key, and budget and trace, at
# a value other than its default
FULL_CONFIG = """\
[experiment]
n_nodes = 2
budget = 1000
trace = yes
[network]
packet_bits = 128
ber_target = 1e-3
kappa1 = 0.25
kappa2 = 2.5
bs_power = 2.0
transfer_efficiency = 0.5
bandwidth = 200e3
arrival_period = 5e-3
arrival_prob = 0.2
battery_levels = 4
battery_quantum = 2e-3
queue_cap = 3
max_modulation = 4
channel_gain = 1.0, 0.5
discount = 0.9
vi_tol = 1e-5
initial_battery = 2
[channel]
seed = 7
reference_gain = 10.0
reference_dist = 12.0
min_dist = 30.0
max_dist = 40.0
pathloss_exp = 2.5
[eqat]
alpha = 0.25
backoff_window = 4
[rc]
contention_prob = 0.5
"""

# the Python type a declared annotation converts to
DECLARED_TYPES = {"int": int, "int | None": int, "float": float, "bool": bool,
                  "tuple[float, ...] | None": tuple}


def declared(obj):
    """{name: (annotation, default)} of a dataclass's fields or a callable's parameters."""
    if is_dataclass(obj):
        return {f.name: (f.type, f.default) for f in fields(obj)}
    return {name: (par.annotation, par.default)
            for name, par in inspect.signature(obj).parameters.items()}


# the example configs README.md runs, by file name: each network's overrides
EXAMPLES = {"defaults.ini": {}, "scarce.ini": {"bs_power": 1.0}}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestExampleConfigs:
    def test_every_example_is_checked(self):
        assert sorted(p.name for p in CONFIGS.glob("*.ini")) == sorted(EXAMPLES)

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_example_parses_and_runs_cut_down(self, name):
        spec = spec_from_config(str(CONFIGS / name))
        assert spec.validate() == []
        assert (spec.n_nodes, spec.strategies, spec.network) == (
            [2, 3, 10], list(STRATEGIES), EXAMPLES[name])
        res = run_experiment(replace(spec, slots=50, seeds=spec.seeds[:1], workers=1))
        assert res.failures == []
        assert len(res.raw_rows) == 3 * len(STRATEGIES)


class TestSchema:
    def test_each_section_holds_the_declared_names_less_those_set_elsewhere(self):
        assert set(_SPEC_SCHEMA) == {"experiment", "network", "channel", "eqat", "rc"}
        assert set(_SPEC_SCHEMA["experiment"]) == {
            f.name for f in fields(ExperimentSpec) if f.type != "dict"}
        assert set(_SPEC_SCHEMA["network"]) == set(declared(NetworkParams)) - {"n_nodes",
                                                                               "slot_len"}
        assert set(_SPEC_SCHEMA["channel"]) == set(declared(draw_channel_gains)) - {"n_nodes"}
        assert set(_SPEC_SCHEMA["eqat"]) == set(declared(EqatStrategy)) - {"design"}
        assert set(_SPEC_SCHEMA["rc"]) == set(declared(STRATEGIES["rc"]))

    def test_an_undeclared_type_fails_at_once(self):
        def setting(level: "complex" = 1j):
            pass

        with pytest.raises(KeyError):
            experiments._declared(setting)

    def test_every_key_set_reaches_the_spec_and_the_params(self, tmp_path):
        cfg = tmp_path / "full.ini"
        cfg.write_text(FULL_CONFIG)
        spec = spec_from_config(str(cfg))
        assert spec.validate() == []
        experiment = declared(ExperimentSpec)
        for key, value in (("budget", 1000), ("trace", True)):
            annotation, default = experiment[key]
            got = getattr(spec, key)
            assert got == value != default and type(got) is DECLARED_TYPES[annotation], key
        sections = {"network": (spec.network, declared(NetworkParams)),
                    "channel": (spec.channel, declared(draw_channel_gains)),
                    "eqat": (spec.eqat, declared(EqatStrategy)),
                    "rc": (spec.rc, declared(STRATEGIES["rc"]))}
        for name, (values, decl) in sections.items():
            assert set(values) == set(_SPEC_SCHEMA[name]), name
            for key, value in values.items():
                annotation, default = decl[key]
                assert type(value) is DECLARED_TYPES[annotation], (name, key)
                assert value != default, (name, key)

        params = spec.resolve_params(2, 10)
        for key, value in spec.network.items():
            assert getattr(params, key) == value and type(getattr(params, key)) is type(value), key
        drawn = replace(spec, network={k: v for k, v in spec.network.items()
                                       if k != "channel_gain"}).resolve_params(2, 10)
        assert drawn.channel_gain == draw_channel_gains(2, **spec.channel)
        assert drawn.channel_gain != draw_channel_gains(2)
        eqat = make_strategy("eqat", **spec.eqat)
        assert {key: getattr(eqat, key) for key in spec.eqat} == spec.eqat
        # rc's one key is its table's value wherever a node holds a packet
        rc = make_strategy("rc", **spec.rc)
        assert {rc.f(e, q, params) for e in range(params.battery_levels + 1)
                for q in range(1, params.queue_cap + 1)} == {spec.rc["contention_prob"]}


class TestReport:
    def test_single_strategy_table(self):
        res = run_experiment(tiny_spec(seeds=[0, 1]))
        rep = report(res.agg_rows)
        assert len(rep["tables"]) == 1
        assert rep["tables"][0]["by_throughput"][0]["strategy"] == "rs"
        assert "scenario N=2" in rep["text"]

    @pytest.mark.parametrize("stderr", [0.5, 0.0])
    def test_equal_metrics_reported_as_tie(self, stderr):
        # equal means tie whatever their errors, one seed's 0.0 included;
        # every aggregate column, the unnamed ones 0.0 (the report reads them all)
        rows = [
            {**{col: 0.0 for col in AGG_COLUMNS},
             "n_nodes": 2, "t_hat": 10, "design": "-", "strategy": name, "n_seeds": 2,
             "generated_mean": 1.0, "delivered_mean": 1.0, "dropped_mean": 0.0,
             "throughput_pps_mean": 5.0, "throughput_pps_stderr": stderr,
             "loss_rate_mean": 0.1, "loss_rate_stderr": 0.01}
            for name in ("a", "b")
        ]
        rep = report(rows)
        ranking = rep["tables"][0]["by_throughput"]
        assert ranking[1]["tied_with_previous"] is True
        assert rep["text"].splitlines()[2].lstrip().startswith("= b")

    def test_slot_shares_match_the_raw_rows(self):
        # contention at N=3 spends slots on every outcome and leaves nodes energy-dead
        res = run_experiment(tiny_spec(n_nodes=[3], strategies=["fq", "dfq", "rc", "eqat"],
                                       slots=400, seeds=[0, 1], network={}))
        rep = report(res.agg_rows)
        shares = {}
        for entry in rep["tables"][0]["by_throughput"]:
            name = entry["strategy"].split("(")[0]
            rows = [r for r in res.raw_rows if r["strategy"] == name]
            slots = sum(r["slots"] for r in rows)
            expect = {
                "charge_only_share": sum(r["charge_only_slots"] for r in rows) / slots,
                "collision_share": sum(r["collisions"] for r in rows) / slots,
                "idle_share": sum(r["idle_slots"] for r in rows) / slots,
                "energy_dead_share": sum(r["energy_dead_node_slots"] for r in rows) / (3 * slots),
            }
            for key, value in expect.items():
                assert entry[key] == pytest.approx(value, rel=1e-12, abs=1e-15), (name, key)
            shares[name] = expect
            assert (f"charge-only={expect['charge_only_share']:.3f} "
                    f"collision={expect['collision_share']:.3f} "
                    f"idle={expect['idle_share']:.3f} "
                    f"energy-dead={expect['energy_dead_share']:.3f}") in rep["text"]
        # not vacuous: fq charges, contention collides and kills nodes
        assert shares["fq"]["charge_only_share"] > 0
        assert all(shares[s]["collision_share"] > 0 for s in ("dfq", "rc", "eqat"))
        assert all(shares[s]["energy_dead_share"] > 0.1 for s in ("dfq", "rc", "eqat"))

    def test_slot_shares_of_runs_without_slots_are_zero(self):
        rep = report(run_experiment(tiny_spec(slots=0)).agg_rows)
        entry = rep["tables"][0]["by_throughput"][0]
        assert [entry[k] for k in ("charge_only_share", "collision_share", "idle_share",
                                   "energy_dead_share")] == [0.0] * 4

    def test_trend_flags_over_interval_sweep(self):
        res = run_experiment(tiny_spec(t_hat=[10, 20], strategies=["fq"], seeds=[0, 1]))
        rep = report(res.agg_rows)
        assert len(rep["trends"]) == 1
        t = rep["trends"][0]
        assert t["strategy"] == "fq"
        assert t["t_hat"] == [10, 20]
        assert isinstance(t["throughput_non_increasing"], bool)
