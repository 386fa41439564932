"""Grid runner, CSV/manifest determinism, and the report op."""

import json

import pytest

from rwsnsim import experiments
from rwsnsim.core import draw_channel_gains
from rwsnsim.experiments import (
    AGG_COLUMNS,
    RAW_COLUMNS,
    ExperimentSpec,
    format_csv,
    read_agg_csv,
    report,
    run_experiment,
    spec_from_config,
    write_outputs,
)
from rwsnsim.simulator import simulate_run


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

    def test_ehmdp_exact_within_budget_and_myopic_above(self, caplog):
        spec = tiny_spec(strategies=["ehmdp"], n_nodes=[2])
        res = run_experiment(spec)
        assert res.manifest["scenarios"][0]["ehmdp_mode"] == "exact"
        spec = tiny_spec(strategies=["ehmdp"], n_nodes=[2], budget=5)
        import logging

        with caplog.at_level(logging.INFO, logger="rwsnsim.experiments"):
            res = run_experiment(spec)
        assert res.manifest["scenarios"][0]["ehmdp_mode"] == "myopic"
        assert any("myopic" in m for m in caplog.messages)

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
        assert myopic["ehmdp_mode"] == "myopic"
        assert myopic["ehmdp_sweeps"] is None and myopic["ehmdp_residual"] is None
        # deterministic: a rerun reproduces the manifest
        assert run_experiment(spec).manifest == res.manifest

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

    def test_shipped_myopic_chooser_gives_the_rows_of_one_built_per_run(self):
        spec = tiny_spec(strategies=["ehmdp"], n_nodes=[3], budget=100, seeds=[0, 1])
        res = run_experiment(spec)
        assert res.manifest["scenarios"][0]["ehmdp_mode"] == "myopic"
        params = spec.resolve_params(3, 10)
        for row in res.raw_rows:
            m, _ = simulate_run(params, "ehmdp", spec.slots, row["seed"])
            assert (row["generated"], row["delivered"], row["dropped"]) == (
                m.generated, m.delivered, m.dropped_overflow)

    def test_nan_vi_tol_fails_before_any_sweep(self, monkeypatch):
        def no_solve(model):
            raise AssertionError("value_iteration ran")

        monkeypatch.setattr(experiments, "value_iteration", no_solve)
        spec = tiny_spec(strategies=["ehmdp"],
                         network={"battery_levels": 2, "queue_cap": 2, "vi_tol": float("nan")})
        with pytest.raises(ValueError, match="^vi_tol must be positive$"):
            spec.resolve_params(2, 10)
        res = run_experiment(spec)
        assert [f["error"] for f in res.failures] == ["vi_tol must be positive"]
        assert res.raw_rows == []

    def test_trace_rows_gated(self):
        assert run_experiment(tiny_spec()).trace_rows == []
        res = run_experiment(tiny_spec(trace=True, slots=50))
        assert len(res.trace_rows) == 50


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
        assert rows[0]["throughput_pps_mean"] == res.agg_rows[0]["throughput_pps_mean"]
        assert rows[0]["loss_rate_stderr"] == res.agg_rows[0]["loss_rate_stderr"]


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
        assert p.battery_capacity == pytest.approx(8e-3)

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


class TestReport:
    def test_single_strategy_table(self):
        res = run_experiment(tiny_spec(seeds=[0, 1]))
        rep = report(res.agg_rows)
        assert len(rep["tables"]) == 1
        assert rep["tables"][0]["by_throughput"][0]["strategy"] == "rs"
        assert "scenario N=2" in rep["text"]

    def test_equal_metrics_reported_as_tie(self):
        rows = [
            {"n_nodes": 2, "t_hat": 10, "design": "-", "strategy": "a", "n_seeds": 2,
             "generated_mean": 1.0, "delivered_mean": 1.0, "dropped_mean": 0.0,
             "throughput_pps_mean": 5.0, "throughput_pps_stderr": 0.5,
             "loss_rate_mean": 0.1, "loss_rate_stderr": 0.01},
            {"n_nodes": 2, "t_hat": 10, "design": "-", "strategy": "b", "n_seeds": 2,
             "generated_mean": 1.0, "delivered_mean": 1.0, "dropped_mean": 0.0,
             "throughput_pps_mean": 5.0, "throughput_pps_stderr": 0.5,
             "loss_rate_mean": 0.1, "loss_rate_stderr": 0.01},
        ]
        rep = report(rows)
        ranking = rep["tables"][0]["by_throughput"]
        assert ranking[1]["tied_with_previous"] is True

    def test_trend_flags_over_interval_sweep(self):
        res = run_experiment(tiny_spec(t_hat=[10, 20], strategies=["fq"], seeds=[0, 1]))
        rep = report(res.agg_rows)
        assert len(rep["trends"]) == 1
        t = rep["trends"][0]
        assert t["strategy"] == "fq"
        assert t["t_hat"] == [10, 20]
        assert isinstance(t["throughput_non_increasing"], bool)
