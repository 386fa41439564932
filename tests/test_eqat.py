"""Nomination designs, and the per-node collision law and controller of the oracle."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rwsnsim
from eqat_oracle import Decision, EqatController, collided_transition, collision_prob, eqat_decide
from joint_oracle import NodeState, node_transition
from rwsnsim.core import NetworkParams
from rwsnsim.energy import node_energy_profile, packet_success_prob
from rwsnsim.eqat import TxProbDesign, tx_prob

# (1 - e^-1.5) * e^-0.6 at 40 digits
EXP_DESIGN_REFERENCE = 0.4263552078410445

ALL_DESIGNS = [
    TxProbDesign("exponential", rate_q=0.5, rate_e=0.5),
    TxProbDesign("exponential", rate_q=1.5, rate_e=1.5),
    TxProbDesign("sigmoid"),
    TxProbDesign("gamma", shape=2.0, scale=1.0),
]


def make_params(**kw):
    kw.setdefault("n_nodes", 2)
    return NetworkParams(**kw)


class FixedRng:
    """rng stub whose uniform draw is pinned."""

    def __init__(self, value=0.0):
        self.value = value

    def random(self):
        return self.value


class TestTxProb:
    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.label)
    def test_empty_queue_never_transmits(self, design):
        p = make_params()
        for e in range(p.battery_levels + 1):
            assert tx_prob(design, e, 0, p) == 0.0

    def test_sigmoid_full_queue_empty_battery_is_one(self):
        p = make_params()
        assert tx_prob(TxProbDesign("sigmoid"), 0, p.queue_cap, p) == pytest.approx(1.0)

    def test_exponential_reference_value(self):
        p = make_params()
        design = TxProbDesign(kind="exponential", rate_q=0.5, rate_e=0.3)
        assert tx_prob(design, 2, 3, p) == pytest.approx(EXP_DESIGN_REFERENCE, abs=1e-12)

    def test_gamma_empty_battery_saturates(self):
        p = make_params()
        d = TxProbDesign("gamma")
        assert tx_prob(d, 0, 3, p) == 1.0
        assert tx_prob(d, 0, 0, p) == 0.0

    def test_gamma_matches_regularized_incomplete_gamma(self):
        from scipy.special import gammainc

        p = make_params()
        d = TxProbDesign("gamma", shape=2.5, scale=0.8)
        assert tx_prob(d, 3, 4, p) == pytest.approx(gammainc(2.5, 4 / (0.8 * 3)), abs=1e-14)

    def test_scipy_imported_only_for_gamma_designs(self):
        # scipy is most of the package's import time and only gamma needs it
        code = ("import sys, rwsnsim.experiments, rwsnsim.cli; "
                "assert 'scipy' not in sys.modules, sorted(sys.modules)")
        src = str(Path(rwsnsim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda d: d.label)
    def test_monotone_on_full_grid(self, design):
        # non-decreasing in queue, non-increasing in battery, K=5 x Q=6 grid
        p = make_params(battery_levels=5, queue_cap=6)
        for e in range(p.battery_levels + 1):
            for q in range(p.queue_cap + 1):
                v = tx_prob(design, e, q, p)
                assert 0.0 <= v <= 1.0
                if q < p.queue_cap:
                    assert tx_prob(design, e, q + 1, p) >= v - 1e-15
                if e < p.battery_levels:
                    assert tx_prob(design, e + 1, q, p) <= v + 1e-15

    @pytest.mark.parametrize("battery,queue,message", [
        (9, 1, r"battery level 9 outside \[0, 5\]"),
        (-1, 1, r"battery level -1 outside \[0, 5\]"),
        (2, 7, r"queue length 7 outside \[0, 6\]"),
        (2, -1, r"queue length -1 outside \[0, 6\]"),
    ])
    def test_state_out_of_range_rejected(self, battery, queue, message):
        p = make_params(battery_levels=5, queue_cap=6)
        with pytest.raises(ValueError, match=message):
            tx_prob(TxProbDesign("sigmoid"), battery, queue, p)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TxProbDesign(kind="exponential", rate_q=0.0)
        with pytest.raises(ValueError):
            TxProbDesign("gamma", shape=-1.0)
        with pytest.raises(ValueError):
            TxProbDesign(kind="nope")

    @pytest.mark.parametrize("token,family", [
        ("exp:nan", "exponential rates"), ("exp:inf", "exponential rates"),
        ("exp:1:nan", "exponential rates"), ("gamma:2:inf", "gamma shape and scale"),
    ])
    def test_parse_rejects_non_finite_values_naming_the_token(self, token, family):
        # a NaN rate made tx_prob NaN, so no node ever nominated itself
        with pytest.raises(ValueError) as exc:
            TxProbDesign.parse(token)
        assert str(exc.value) == f"design token {token!r}: {family} must be positive and finite"

    def test_parse_tokens(self):
        assert TxProbDesign.parse("sigmoid").kind == "sigmoid"
        d = TxProbDesign.parse("exp:0.5")
        assert (d.rate_q, d.rate_e) == (0.5, 0.5)
        d = TxProbDesign.parse("exp:0.5:0.3")
        assert (d.rate_q, d.rate_e) == (0.5, 0.3)
        d = TxProbDesign.parse("gamma:2:1.5")
        assert (d.shape, d.scale) == (2.0, 1.5)
        with pytest.raises(ValueError):
            TxProbDesign.parse("bogus:1")

    @pytest.mark.parametrize("design", ALL_DESIGNS + [
        TxProbDesign("exponential", rate_q=1.0, rate_e=0.05),
        TxProbDesign("exponential", rate_q=0.1234567, rate_e=0.1234568),
        TxProbDesign("exponential", rate_q=0.1, rate_e=1 / 3),
        TxProbDesign("exponential", rate_q=1e-300, rate_e=2.5e12),
        TxProbDesign("gamma", shape=1234567.0, scale=0.1 + 0.2),
    ], ids=repr)
    def test_label_parses_back_to_the_design(self, design):
        assert TxProbDesign.parse(design.label) == design

    def test_label_keeps_the_short_spelling_where_it_is_exact(self):
        for token in ("sigmoid", "exp:1:0.05", "exp:0.5", "exp:1.5:0.25", "gamma:2:0.5"):
            assert TxProbDesign.parse(token).label == token
        assert TxProbDesign.parse("exp:0.1234567").label == "exp:0.1234567"

    @pytest.mark.parametrize("token", [
        "exp:1:2:3", "gamma:1:2:3", "sigmoid:5",           # extra arguments
        "sig", "exponential", "exp", "gamma", "gamma:2",   # outside the grammar
        "exp:", "exp:fast", "",
    ])
    def test_parse_rejects_tokens_outside_the_grammar(self, token):
        with pytest.raises(ValueError, match="unknown design token"):
            TxProbDesign.parse(token)


class TestCollisionProb:
    def test_silent_competitors(self):
        assert collision_prob(0, [0.5, 0.0, 0.0]) == 0.0

    def test_certain_competitor(self):
        assert collision_prob(0, [0.2, 1.0, 0.3]) == 1.0

    def test_two_halves(self):
        assert collision_prob(1, [0.5, 0.9, 0.5]) == pytest.approx(0.75)

    def test_non_decreasing_in_each_prob(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            probs = rng.uniform(0, 1, size=5).tolist()
            base = collision_prob(2, probs)
            j = int(rng.integers(0, 5))
            if j == 2:
                continue
            probs[j] = min(1.0, probs[j] + 0.1)
            assert collision_prob(2, probs) >= base - 1e-15


class TestCollidedTransition:
    def test_degenerates_to_scheduled_law_when_others_silent(self):
        p = make_params(n_nodes=1, arrival_prob=0.3)
        for s in (NodeState(0, 0), NodeState(2, 3), NodeState(1, 0),
                  NodeState(5, 6), NodeState(0, 4)):
            got = collided_transition(s, p, 0, [0.0, 0.0])
            scheduled, _ = node_transition(s, p, node_energy_profile(p, 0), selected=True)
            assert [ns for ns, _ in got] == [ns for ns, _ in scheduled]
            assert [pr for _, pr in got] == pytest.approx([pr for _, pr in scheduled], abs=1e-15)

    def test_certain_collision_no_arrival_sure_success(self):
        # competitors at p=1, lam=0, ps=1: single outcome, battery down; the
        # collided packet stays queued
        p = make_params(n_nodes=1, arrival_prob=0.0, ber_target=1e-300,
                        channel_gain=(1e4,))
        prof = node_energy_profile(p, 0)
        dist = collided_transition(NodeState(3, 2), p, 0, [1.0])
        assert dist == [(NodeState(max(0, 3 - prof.min_tx_level), 2), 1.0)]

    def test_five_cases_at_interior_state(self):
        p = make_params(n_nodes=1, arrival_prob=0.3, ber_target=5e-4, channel_gain=(0.9,))
        prof = node_energy_profile(p, 0)
        ps = packet_success_prob(p)
        lam = 0.3
        p_others = [0.5, 0.5]
        clear = 0.25
        col = 0.75
        s = NodeState(2, 3)
        dist = dict(collided_transition(s, p, 0, p_others))
        e_up = min(2 + prof.delta_levels, p.battery_levels)
        e_dn = max(0, 2 - prof.min_tx_level)
        stay = (1 - ps) * (1 - lam) + ps * lam
        assert dist[NodeState(e_up, 4)] == pytest.approx((1 - ps) * lam * clear, abs=1e-15)
        assert dist[NodeState(e_up, 2)] == pytest.approx(ps * (1 - lam) * clear, abs=1e-15)
        assert dist[NodeState(e_up, 3)] == pytest.approx(stay * clear, abs=1e-15)
        # a collision delivers nothing: the queue moves by arrivals only
        assert dist[NodeState(e_dn, 3)] == pytest.approx((1 - lam) * col, abs=1e-15)
        assert dist[NodeState(e_dn, 4)] == pytest.approx(lam * col, abs=1e-15)
        assert NodeState(e_dn, 2) not in dist
        assert len(dist) == 5
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_row_sums_over_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            p = make_params(
                n_nodes=1,
                arrival_prob=float(rng.uniform(0, 1)),
                ber_target=float(rng.uniform(1e-6, 0.19)),
                channel_gain=(float(10 ** rng.uniform(-0.5, 1.0)),),
            )
            s = NodeState(int(rng.integers(0, p.battery_levels + 1)),
                          int(rng.integers(0, p.queue_cap + 1)))
            p_others = rng.uniform(0, 1, size=int(rng.integers(1, 6))).tolist()
            total = sum(pr for _, pr in collided_transition(s, p, 0, p_others))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestController:
    def test_transmits_when_sampled(self):
        p = make_params(n_nodes=1, channel_gain=(1e4,))
        ctl = EqatController(design=TxProbDesign("sigmoid"))
        got = eqat_decide(ctl, NodeState(3, 3), p, FixedRng(0.0),
                          profile=node_energy_profile(p, 0))
        assert got == Decision.TRANSMIT

    def test_escalation_caps_at_one(self):
        p = make_params()
        ctl = EqatController(design=TxProbDesign("sigmoid"), alpha=0.5, fail_count=3)
        s = NodeState(2, 4)
        base = ctl.base_p(s, p)
        # pick a state where the design value is near 0.4 so 1.5^3 * p > 1
        assert 1.5**3 * base >= 1.0
        assert ctl.effective_p(s, p) == 1.0

    def test_effective_p_always_a_probability(self):
        p = make_params()
        rng = np.random.default_rng(8)
        for _ in range(300):
            rate = float(rng.uniform(0.1, 3.0))
            ctl = EqatController(
                design=TxProbDesign("exponential", rate_q=rate, rate_e=rate),
                alpha=float(rng.uniform(0.01, 2.0)),
                fail_count=int(rng.integers(0, 40)),
            )
            s = NodeState(int(rng.integers(0, p.battery_levels + 1)),
                          int(rng.integers(0, p.queue_cap + 1)))
            assert 0.0 <= ctl.effective_p(s, p) <= 1.0

    def test_failures_escalate_success_resets(self):
        p = make_params(n_nodes=1, channel_gain=(1e4,))
        ctl = EqatController(design=TxProbDesign("sigmoid"))
        s = NodeState(3, 3)
        ctl.on_ber_failure()
        ctl.on_collision(np.random.default_rng(1))
        assert ctl.fail_count == 2
        assert ctl.effective_p(s, p) >= ctl.base_p(s, p)
        ctl.on_success()
        assert ctl.fail_count == 0
        assert ctl.effective_p(s, p) == ctl.base_p(s, p)

    def test_collision_starts_backoff_and_idles(self):
        p = make_params(n_nodes=1, channel_gain=(1e4,))
        prof = node_energy_profile(p, 0)
        ctl = EqatController(design=TxProbDesign("sigmoid"), backoff_window=4)
        ctl.on_collision(np.random.default_rng(0))
        assert 1 <= ctl.backoff_remaining <= 4
        assert ctl.fail_count == 1
        assert eqat_decide(ctl, NodeState(3, 3), p, FixedRng(0.0), profile=prof) == Decision.IDLE
        for _ in range(4):
            ctl.tick()
        assert ctl.backoff_remaining == 0

    def test_idle_without_packet_or_battery(self):
        p = make_params(n_nodes=1, channel_gain=(0.4,))
        prof = node_energy_profile(p, 0)
        ctl = EqatController(design=TxProbDesign("sigmoid"))
        assert eqat_decide(ctl, NodeState(3, 0), p, FixedRng(0.0), profile=prof) == Decision.IDLE
        assert prof.min_tx_level > 1
        blocked = NodeState(prof.min_tx_level - 1, 3)
        assert eqat_decide(ctl, blocked, p, FixedRng(0.0), profile=prof) == Decision.IDLE
