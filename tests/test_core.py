"""Parameter validation, the channel draw, config files, and the oracle's joint state indexing."""

import itertools
import math

import pytest

from joint_oracle import NodeState, iter_joint_states, state_index, state_unindex
from rwsnsim.core import NetworkParams, arrival_pmf, draw_channel_gains, validate
from rwsnsim.experiments import read_config


def make_params(**kw):
    kw.setdefault("n_nodes", 2)
    return NetworkParams(**kw)


class TestStateIndex:
    def test_origin_maps_to_zero(self):
        p = make_params(n_nodes=1, battery_levels=1, queue_cap=1)
        assert state_index((NodeState(0, 0),), p) == 0

    def test_last_state_of_2x2_space(self):
        p = make_params(n_nodes=1, battery_levels=1, queue_cap=1)
        assert state_index((NodeState(1, 1),), p) == 3

    @pytest.mark.parametrize("n,k,q", [(1, 1, 1), (2, 2, 2), (3, 2, 2), (2, 4, 4), (3, 4, 4)])
    def test_round_trip_exhaustive(self, n, k, q):
        # independent oracle: explicit enumeration of the full product space
        p = make_params(n_nodes=n, battery_levels=k, queue_cap=q)
        per_node = [NodeState(b, ql) for b in range(k + 1) for ql in range(q + 1)]
        seen = set()
        for joint in itertools.product(per_node, repeat=n):
            idx = state_index(joint, p)
            assert 0 <= idx < p.joint_state_count
            assert state_unindex(idx, p) == joint
            seen.add(idx)
        assert len(seen) == p.joint_state_count  # bijection

    def test_iter_joint_states_matches_index_order(self):
        p = make_params(n_nodes=2, battery_levels=1, queue_cap=1)
        states = list(iter_joint_states(p))
        assert len(states) == p.joint_state_count
        for i, s in enumerate(states):
            assert state_index(s, p) == i

    def test_out_of_range_component_rejected(self):
        p = make_params(n_nodes=1, battery_levels=2, queue_cap=2)
        with pytest.raises(ValueError):
            state_index((NodeState(3, 0),), p)
        with pytest.raises(ValueError):
            state_index((NodeState(0, -1),), p)
        with pytest.raises(ValueError):
            state_unindex(p.joint_state_count, p)

    def test_wrong_node_count_rejected(self):
        p = make_params(n_nodes=2)
        with pytest.raises(ValueError):
            state_index((NodeState(0, 0),), p)


class TestValidate:
    def test_reference_config_is_ok(self):
        # K=5, Q=6, M=5, L=256, kappa1=0.2, kappa2=3, eps=5e-4, P_e=3 W
        p = make_params(
            n_nodes=10,
            battery_levels=5,
            queue_cap=6,
            max_modulation=5,
            packet_bits=256,
            kappa1=0.2,
            kappa2=3.0,
            ber_target=5e-4,
            bs_power=3.0,
        )
        assert validate(p) == []

    def test_kappa1_equal_ber_is_violation(self):
        p = make_params(kappa1=5e-4, ber_target=5e-4)
        msgs = validate(p)
        assert any("positive" in m and "kappa1" in m for m in msgs)

    def test_other_battery_grid_is_ok(self):
        assert validate(make_params(battery_levels=4, battery_quantum=2e-3)) == []

    def test_all_violations_reported_not_just_first(self):
        p = make_params(ber_target=0.0, queue_cap=0, max_modulation=0)
        msgs = validate(p)
        assert len(msgs) >= 3

    @pytest.mark.parametrize("period", [0.0, -1e-3, float("nan")])
    def test_non_positive_arrival_period_is_one_violation(self, period):
        expect = ["arrival_period must be positive and finite"]
        assert validate(make_params(arrival_period=period)) == expect

    @pytest.mark.parametrize("field,bad", [
        pytest.param(field, bad, id=field + ("" if math.isnan(bad) else "-inf"))
        for bad in (math.nan, math.inf)
        for field in ("vi_tol", "kappa1", "kappa2", "bs_power", "bandwidth", "slot_len",
                      "arrival_period", "battery_quantum", "channel_gain")
    ])
    def test_nan_is_one_violation_naming_its_field(self, field, bad):
        problems = validate(make_params(**{field: (1.0, bad) if field == "channel_gain" else bad}))
        assert len(problems) == 1 and field in problems[0], problems

    def test_packet_must_fit_in_slot(self):
        p = make_params(slot_len=1e-6, bandwidth=1e3, max_modulation=1, packet_bits=256)
        assert any("fit" in m for m in validate(p))


class TestChannelModel:
    @pytest.mark.parametrize("kw,message", [
        ({"max_dist": math.inf}, "max_dist must be positive and finite"),
        ({"min_dist": 50.0, "max_dist": 40.0}, "min_dist must be <= max_dist"),
        ({"reference_gain": 0.0, "pathloss_exp": math.nan},
         "reference_gain must be positive and finite; pathloss_exp must be positive and finite"),
        ({"reference_dist": -10.0}, "reference_dist must be positive and finite"),
        ({"seed": -1}, "seed must be >= 0"),
    ])
    def test_bad_arguments_named_in_one_error(self, kw, message):
        with pytest.raises(ValueError) as exc:
            draw_channel_gains(3, **kw)
        assert str(exc.value) == message

    def test_draw_is_deterministic_in_seed_and_n(self):
        a = draw_channel_gains(5, seed=7)
        b = draw_channel_gains(5, seed=7)
        assert a == b
        assert draw_channel_gains(5, seed=8) != a

    def test_all_gains_positive_and_bounded(self):
        g = draw_channel_gains(40, seed=3, reference_gain=10.0)
        assert all(x > 0 for x in g)
        # farthest node (50 m) gets reference_gain * (10/50)^2
        assert min(g) >= 10.0 * (10.0 / 50.0) ** 2 - 1e-12


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "net.ini"
        cfg.write_text(
            "[network]\n"
            "queue_cap = 3\n"
            "arrival_prob = 0.25\n"
            "battery_quantum = 2e-3\n"
            "channel_gain = 1.0, 0.5, 0.25\n"
            "[channel]\n"
            "seed = 11\n"
        )
        cfg = read_config(str(cfg))
        # every section of the schema, empty unless the file sets it
        assert {name: values for name, values in cfg.items() if values} == {
            "network": {"queue_cap": 3, "arrival_prob": 0.25, "battery_quantum": 2e-3,
                        "channel_gain": (1.0, 0.5, 0.25)},
            "channel": {"seed": 11},
        }
        assert set(cfg) == {"experiment", "network", "channel", "eqat", "rc"}
        assert type(cfg["network"]["queue_cap"]) is int

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            read_config("/nonexistent/net.ini")

    def test_every_unknown_section_and_key_named_in_one_error(self, tmp_path):
        cfg = tmp_path / "net.ini"
        cfg.write_text("[network]\nqueue_cap = 3\narival_prob = 0.2\n\n"
                       "[netwrok]\nqueue_cap = 4\n\n[channel]\nsede = 3\n")
        with pytest.raises(ValueError) as exc:
            read_config(str(cfg))
        msg = str(exc.value)
        assert "[network] arival_prob" in msg
        assert "[netwrok]" in msg
        assert "[channel] sede" in msg

    def test_bad_value_names_its_key(self, tmp_path):
        cfg = tmp_path / "net.ini"
        cfg.write_text("[network]\nqueue_cap = three\n")
        with pytest.raises(ValueError, match=r"\[network\] queue_cap"):
            read_config(str(cfg))


class TestArrivalsPerSlot:
    def test_default_one_opportunity(self):
        assert make_params().arrivals_per_slot == 1

    def test_scales_with_slot_len(self):
        p = make_params(slot_len=40e-3, arrival_period=10e-3)
        assert p.arrivals_per_slot == 4

    def test_half_ratios_round_to_even(self):
        # the artefact the property documents: slot lengths as a grid builds
        # them (t_hat * 1 ms) give 1.5 -> 2, 2.5 -> 2, 3.5000000000000004 -> 4
        # and 4.5 -> 4, so the offered load per second jumps along the sweep
        got = [make_params(slot_len=t_hat * 1e-3).arrivals_per_slot for t_hat in (15, 25, 35, 45)]
        assert got == [2, 2, 4, 4]

    def test_arrival_law_past_1029_opportunities_names_its_cause(self):
        # comb(1030, 515) overflows a float, though validate accepts the params
        fits = make_params(arrival_period=10e-3 / 1029)
        assert fits.arrivals_per_slot == 1029 and validate(fits) == []
        assert arrival_pmf(fits).sum() == pytest.approx(1.0, abs=1e-12)
        over = make_params(arrival_period=10e-3 / 1030)
        assert over.arrivals_per_slot == 1030 and validate(over) == []
        with pytest.raises(ValueError, match=r"^arrivals_per_slot = 1030 \(slot_len 0\.01 / "
                                             r"arrival_period 9\.7\d*e-06\) is above 1029"):
            arrival_pmf(over)
