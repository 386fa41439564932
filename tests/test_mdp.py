"""Transition laws, model build, and value iteration against independent oracles."""

import functools
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rwsnsim

from joint_oracle import (
    NodeState,
    backward_induction,
    bellman_q,
    build_joint_model,
    dense_kernel,
    expected,
    iter_joint_states,
    joint_transition,
    joint_value_iteration,
    node_law,
    node_transition,
    optimal_values,
    policy_values,
    state_index,
    state_unindex,
    tie_policy,
    transition_reward,
)
from rwsnsim import mdp
from rwsnsim.core import NetworkParams, draw_channel_gains
from rwsnsim.energy import energy_profiles, packet_success_prob
from rwsnsim.mdp import (
    TIE_RTOL,
    MyopicChooser,
    PolicyChooser,
    TransitionModel,
    ValueIterationError,
    build_model,
    greedy_policy,
    reachable,
    value_iteration,
)
from rwsnsim.simulator import EhmdpStrategy, Simulation, simulate_run


def make_params(**kw):
    kw.setdefault("n_nodes", 1)
    return NetworkParams(**kw)


# params with float-exact sure success: (1 - 1e-300)**256 == 1.0, and a strong
# channel so transmission is affordable from battery level 1 upward
SURE_SUCCESS = dict(ber_target=1e-300, channel_gain=None)


# (nodes, battery levels, queue cap) of the desk instances
DESK = [(2, 2, 2), (3, 2, 2), (2, 5, 6)]
# and one with a fourth node (6,561 states), for the solves that reach every
# axis of a 4-node value tensor
DESK_N4 = DESK + [(4, 2, 2)]


def desk_params(n, k, q):
    """Small hand-checkable instances with distinct per-node channels."""
    return make_params(
        n_nodes=n, battery_levels=k, queue_cap=q, arrival_prob=0.3,
        channel_gain=tuple(1.0 - 0.15 * i for i in range(n)),
    )


@pytest.fixture(scope="module")
def desk_joint():
    """The enumerated joint model of a desk instance, built once per module."""
    return functools.cache(lambda n, k, q: build_joint_model(desk_params(n, k, q)))


def sure_success_params(n_nodes=1, **kw):
    kw.setdefault("channel_gain", (1e4,) * n_nodes)
    return make_params(n_nodes=n_nodes, ber_target=1e-300, **kw)


def sure_failure_params(n_nodes=1, **kw):
    # ps = (1e-6)**256 underflows to exactly 0.0
    kw.setdefault("channel_gain", (1e4,) * n_nodes)
    return make_params(n_nodes=n_nodes, ber_target=0.999999, kappa1=2.0, **kw)


def kernel_law(p, s, node=None):
    """Row s of node `node`'s selected kernel (of U when None): the next states'
    probabilities, merged over outcomes, and the row's expected loss."""
    model = build_model(p)
    matrix, cost = dense_kernel(model, 0 if node is None else 1 + node)
    width = p.queue_cap + 1
    idx = s.battery * width + s.queue
    row = matrix[idx]
    law = {NodeState(*divmod(int(j), width)): float(row[j]) for j in np.flatnonzero(row)}
    return law, float(cost[idx])


def expected_loss(s, action, p):
    """Expected drops of the oracle's joint row from s under `action`."""
    return sum(pr * transition_reward(s, sb, action, p) for sb, pr in joint_transition(s, action, p))


# two arrival opportunities per slot at the default 10 ms slot
TWO_ARRIVALS = dict(arrival_period=5e-3)


class TestSelectedTransition:
    def test_sure_success_no_arrival_decrements_queue(self):
        p = sure_success_params(arrival_prob=0.0)
        assert packet_success_prob(p) == 1.0
        law, cost = kernel_law(p, NodeState(2, 3), node=0)
        # huge harvest clamps at K
        assert law == {NodeState(p.battery_levels, 2): 1.0}
        assert cost == 0.0

    def test_sure_failure_sure_arrival_increments_queue(self):
        p = sure_failure_params(arrival_prob=1.0)
        assert packet_success_prob(p) == 0.0
        law, _ = kernel_law(p, NodeState(2, 3), node=0)
        assert len(law) == 1
        (ns, prob), = law.items()
        assert prob == 1.0
        assert ns.queue == 4

    def test_reference_masses_interior_state(self):
        p = make_params(arrival_prob=0.3, ber_target=5e-4, packet_bits=256)
        ps = packet_success_prob(p)
        law, _ = kernel_law(p, NodeState(1, 3), node=0)
        by_queue = {ns.queue: pr for ns, pr in law.items()}
        assert by_queue[4] == pytest.approx((1 - ps) * 0.3, abs=1e-15)
        assert by_queue[2] == pytest.approx(ps * 0.7, abs=1e-15)
        assert by_queue[3] == pytest.approx((1 - ps) * 0.7 + ps * 0.3, abs=1e-15)
        # spec'd reference decimals for this configuration
        assert by_queue[4] == pytest.approx(0.0361, abs=1e-4)
        assert by_queue[2] == pytest.approx(0.6158, abs=1e-4)
        assert by_queue[3] == pytest.approx(0.3481, abs=1e-4)
        assert sum(by_queue.values()) == pytest.approx(1.0, abs=1e-12)

    def test_empty_queue_is_charge_only(self):
        p = make_params(arrival_prob=0.25)
        prof = energy_profiles(p)[0]
        law, _ = kernel_law(p, NodeState(1, 0), node=0)
        expect_e = min(1 + prof.harvest_only_levels, p.battery_levels)
        assert law == {
            NodeState(expect_e, 1): pytest.approx(0.25),
            NodeState(expect_e, 0): pytest.approx(0.75),
        }

    def test_depleted_battery_is_charge_only(self):
        p = make_params(arrival_prob=0.25, channel_gain=(0.4,))  # weak channel, costly tx
        prof = energy_profiles(p)[0]
        assert 1 < prof.min_tx_level <= p.battery_levels
        e0 = prof.min_tx_level - 1
        law, _ = kernel_law(p, NodeState(e0, 3), node=0)
        queues = {ns.queue for ns in law}
        assert queues == {3, 4}  # no decrement possible

    def test_full_queue_folds_up_mass(self):
        p = make_params(arrival_prob=0.3)
        ps = packet_success_prob(p)
        law, _ = kernel_law(p, NodeState(2, p.queue_cap), node=0)
        by_queue = {ns.queue: pr for ns, pr in law.items()}
        assert by_queue[p.queue_cap] == pytest.approx(1 - ps * 0.7, abs=1e-15)
        assert by_queue[p.queue_cap - 1] == pytest.approx(ps * 0.7, abs=1e-15)

    def test_masses_sum_to_one_random_params(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            p = make_params(
                arrival_prob=float(rng.uniform(0, 1)),
                ber_target=float(rng.uniform(1e-6, 0.19)),
                channel_gain=(float(10 ** rng.uniform(-1, 1)),),
                arrival_period=float(rng.choice([10e-3, 5e-3, 2.5e-3])),
            )
            for s in (NodeState(0, 0), NodeState(2, 3), NodeState(5, 6), NodeState(1, 6)):
                law, _ = kernel_law(p, s, node=0)
                assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)


class TestUnselectedTransition:
    def test_no_arrivals_is_identity(self):
        p = make_params(arrival_prob=0.0)
        assert kernel_law(p, NodeState(2, 3)) == ({NodeState(2, 3): 1.0}, 0.0)

    def test_sure_arrival_increments(self):
        p = make_params(arrival_prob=1.0)
        assert kernel_law(p, NodeState(2, 3)) == ({NodeState(2, 4): 1.0}, 0.0)

    def test_pinned_at_full_queue(self):
        # a full queue stays full, and each kernel's expected loss there is
        # the mean number of packets the slot drops, X ~ Binomial(k, lambda)
        # arrivals against a departure D
        for k, extra in ((1, {}), (2, TWO_ARRIVALS)):
            p = make_params(arrival_prob=0.3, **extra)
            assert p.arrivals_per_slot == k
            lam, ps, q = p.arrival_prob, packet_success_prob(p), p.queue_cap
            prof = energy_profiles(p)[0]
            full = NodeState(p.battery_levels, q)
            assert full.battery >= prof.min_tx_level >= 1
            law, cost = kernel_law(p, full)
            assert law == {full: pytest.approx(1.0)}
            assert cost == pytest.approx(k * lam, abs=1e-15)  # U: every arrival drops
            # S transmitting: E[max(0, X - D)], and E[max(0, X - 1)] = k lam - P(X >= 1)
            _, cost = kernel_law(p, full, node=0)
            tail = k * lam - (1 - (1 - lam) ** k)
            assert cost == pytest.approx(ps * tail + (1 - ps) * k * lam, abs=1e-15)
            if k == 1:
                assert cost == pytest.approx((1 - ps) * lam, abs=1e-15)
            # S charge-only: nothing departs, so it drops like U
            _, cost = kernel_law(p, NodeState(0, q), node=0)
            assert cost == pytest.approx(k * lam, abs=1e-15)


class TestArrivalLaw:
    """The kernels apply the simulator's `arrivals_per_slot` opportunities per slot."""

    def test_kernel_sees_the_load_the_simulator_applies(self):
        p = make_params(n_nodes=2, arrival_prob=0.2, slot_len=10e-3, arrival_period=5e-3)
        assert p.arrivals_per_slot == 2
        lam = p.arrival_prob
        s = NodeState(2, 3)  # interior: two arrivals fit without pinning
        law, _ = kernel_law(p, s)
        increment = sum(pr * (ns.queue - s.queue) for ns, pr in law.items())
        assert increment == pytest.approx(2 * lam, abs=1e-15)
        slots = 20_000
        m, _ = simulate_run(p, "fq", slots=slots, seed=0)
        per_node_slot = m.generated / (slots * p.n_nodes)
        # 2 * slots * n_nodes Bernoulli(lam) opportunities
        sigma = (2 * lam * (1 - lam) / (slots * p.n_nodes)) ** 0.5
        assert abs(per_node_slot - increment) <= 4 * sigma


class TestTransitionReward:
    def test_zero_when_no_full_queue(self):
        p = make_params(n_nodes=2)
        a = (NodeState(2, 3), NodeState(2, 0))
        b = (NodeState(2, 2), NodeState(2, 1))
        assert transition_reward(a, b, 0, p) == 0.0

    def test_unselected_full_queue_contributes_lambda(self):
        p = make_params(n_nodes=2, arrival_prob=0.3)
        a = (NodeState(2, 1), NodeState(2, p.queue_cap))
        b = (NodeState(5, 0), NodeState(2, p.queue_cap))
        assert transition_reward(a, b, 0, p) == pytest.approx(0.3)

    def test_selected_full_queue_contributes_failure_mass(self):
        # the expected loss of a transmitting node at a full queue is the
        # arrival that meets a failed packet: (1 - ps) * lambda
        p = make_params(n_nodes=1, arrival_prob=0.3, ber_target=5e-4)
        ps = packet_success_prob(p)
        s = NodeState(2, p.queue_cap)
        _, cost = kernel_law(p, s, node=0)
        assert cost == pytest.approx((1 - ps) * 0.3, abs=1e-15)
        assert cost == pytest.approx(0.0361, abs=1e-4)
        assert expected_loss((s,), 0, p) == pytest.approx(cost, abs=1e-15)

    def test_blocked_selected_node_drops_like_unselected(self):
        p = make_params(n_nodes=1, arrival_prob=0.3, channel_gain=(0.4,))
        prof = energy_profiles(p)[0]
        s = NodeState(prof.min_tx_level - 1, p.queue_cap)
        assert kernel_law(p, s, node=0)[1] == pytest.approx(0.3)
        assert expected_loss((s,), 0, p) == pytest.approx(0.3)


class TestJointTransition:
    def test_single_node_equals_selected(self):
        p = make_params(arrival_prob=0.3)
        s = (NodeState(1, 3),)
        joint = {js[0]: pr for js, pr in joint_transition(s, 0, p)}
        law, _ = kernel_law(p, s[0], node=0)
        assert joint == pytest.approx(law, abs=1e-15)

    def test_two_node_deterministic_case(self):
        p = sure_success_params(n_nodes=2, arrival_prob=0.0)
        s = (NodeState(2, 3), NodeState(1, 4))
        out = joint_transition(s, 0, p)
        assert len(out) == 1
        (js, pr), = out
        assert pr == 1.0
        assert js[0] == NodeState(p.battery_levels, 2)
        assert js[1] == NodeState(1, 4)

    def test_product_structure_matches_enumeration_oracle(self):
        p = make_params(n_nodes=2, arrival_prob=0.3, channel_gain=(1.0, 0.7))
        prof = energy_profiles(p)
        s = (NodeState(1, 3), NodeState(2, 6))
        got = {js: pr for js, pr in joint_transition(s, 1, p)}
        # oracle: explicit double loop over the two per-node laws
        exp = {}
        for n0, p0 in node_transition(s[0], p, prof[0], selected=False)[0]:
            for n1, p1 in node_transition(s[1], p, prof[1], selected=True)[0]:
                exp[(n0, n1)] = exp.get((n0, n1), 0.0) + p0 * p1
        assert set(got) == set(exp)
        for k in exp:
            assert got[k] == pytest.approx(exp[k], abs=1e-15)
        assert sum(got.values()) == pytest.approx(1.0, abs=1e-12)


def kernel_rows(model: TransitionModel, kernel: int):
    """Per local state, the (next local state, probability, reward) entries of one kernel."""
    m = model.moves.shape[1]
    out = []
    for r in range(kernel * m, (kernel + 1) * m):
        lo, hi = model.row_ptr[r], model.row_ptr[r + 1]
        out.append(list(zip(model.next_state[lo:hi].tolist(), model.prob[lo:hi].tolist(),
                            model.reward[lo:hi].tolist())))
    return out


def assert_kernel_rows_stochastic(model: TransitionModel):
    for j in range(model.n_actions + 1):
        for entries in kernel_rows(model, j):
            probs = np.array([p for _, p, _ in entries])
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert (probs >= 0).all()
            assert all(r >= 0 for _, _, r in entries)


def product_row(model: TransitionModel, state: int, action: int) -> dict[int, tuple[float, float]]:
    """Joint row of (state, action) composed from the kernels, merged by next
    state: next -> (probability, probability-weighted drops)."""
    m, n = model.moves.shape[1], model.n_actions
    digits = [(state // m ** (n - 1 - i)) % m for i in range(n)]
    acc = [(0, 1.0, 0.0)]
    for i, d in enumerate(digits):
        table = kernel_rows(model, 1 + action if i == action else 0)[d]
        acc = [(base * m + nxt, p * pe, r + re)
               for base, p, r in acc for nxt, pe, re in table]
    out: dict[int, tuple[float, float]] = {}
    for nxt, p, r in acc:
        mass, loss = out.get(nxt, (0.0, 0.0))
        out[nxt] = (mass + p, loss + p * r)
    return out


class TestBuildModel:
    def test_minimal_space(self):
        p = make_params(n_nodes=1, battery_levels=1, queue_cap=1)
        m = build_model(p)
        assert m.n_states == 4
        assert m.n_actions == 1
        assert m.row_ptr.size == 2 * 4 + 1  # kernels U and S_0, four local states each
        assert_kernel_rows_stochastic(m)
        joint = build_joint_model(p)
        for s in range(4):
            _, probs, _ = joint.row(s, 0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "n,k,q,expected",
        [(2, 2, 2, 81), (3, 2, 2, 729), (2, 5, 6, 1764)],
    )
    def test_row_sums_on_desk_instances(self, n, k, q, expected):
        p = desk_params(n, k, q)
        m = build_model(p)
        assert m.n_states == expected
        assert_kernel_rows_stochastic(m)
        joint = build_joint_model(p)
        assert joint.n_states == expected
        for s in range(joint.n_states):
            for a in range(joint.n_actions):
                _, probs, rewards = joint.row(s, a)
                assert abs(probs.sum() - 1.0) <= 1e-12
                assert (probs >= 0).all()
                assert (rewards >= 0).all()

    def test_rewards_match_transition_reward(self):
        # the kernel products reproduce each joint row: next states,
        # probabilities, and the summed per-node expected drops
        for extra in ({}, TWO_ARRIVALS):
            p = make_params(n_nodes=2, battery_levels=2, queue_cap=2, arrival_prob=0.3, **extra)
            m = build_model(p)
            rng = np.random.default_rng(5)
            for _ in range(50):
                s = int(rng.integers(m.n_states))
                a = int(rng.integers(m.n_actions))
                row = product_row(m, s, a)
                sa = state_unindex(s, p)
                expect = {state_index(sb, p): pr for sb, pr in joint_transition(sa, a, p)}
                assert set(row) == set(expect)
                for nxt, (pr, loss) in row.items():
                    assert pr == pytest.approx(expect[nxt], abs=1e-15)
                    sb = state_unindex(nxt, p)
                    assert loss == pytest.approx(pr * transition_reward(sa, sb, a, p), abs=1e-15)

    def test_stores_one_kernel_per_node_plus_the_arrival_kernel(self):
        p = make_params(n_nodes=3)
        m = build_model(p)
        assert p.per_node_states == 42
        assert m.row_ptr.size == 4 * 42 + 1
        # one entry per (departure, arrivals) outcome: at most 2 x 2 a row
        assert m.prob.size <= 4 * 42 * 4
        # an entry's reward is the packets that outcome drops, never a fraction
        assert set(m.reward.tolist()) == {0.0, 1.0}

    @pytest.mark.parametrize("period", [10e-3, 5e-3, 10e-3 / 3])
    def test_kernels_match_the_plain_reference(self, period):
        # every row of U and of each S_k, against the oracle's event-by-event law
        p = make_params(n_nodes=2, arrival_prob=0.35, arrival_period=period,
                        channel_gain=(1.0, 0.4))
        assert p.arrivals_per_slot == round(10e-3 / period)
        profiles = energy_profiles(p)
        model = build_model(p)
        width = p.queue_cap + 1
        for j in range(p.n_nodes + 1):
            matrix, cost = dense_kernel(model, j)
            for idx in range(p.per_node_states):
                s = NodeState(*divmod(idx, width))
                law = node_law(s, p, profiles[max(j - 1, 0)], selected=j > 0)
                expect = np.zeros(p.per_node_states)
                for ns, pr, _ in law:
                    expect[ns.battery * width + ns.queue] += pr
                assert matrix[idx] == pytest.approx(expect, abs=1e-15)
                assert cost[idx] == pytest.approx(sum(pr * d for _, pr, d in law), abs=1e-15)


class TestValueIteration:
    def test_zero_rewards_give_zero_values(self):
        p = make_params(n_nodes=2, battery_levels=1, queue_cap=1, arrival_prob=0.0, discount=0.9)
        m = build_model(p)
        res = value_iteration(m)
        assert np.allclose(res.values, 0.0)

    def test_self_loop_geometric_series(self):
        # one node whose packets never get through and that receives one
        # every slot: a full queue drops one a slot from now on, an empty
        # one from the next slot
        p = sure_failure_params(arrival_prob=1.0, battery_levels=1, queue_cap=1,
                                discount=0.9, vi_tol=1e-10)
        res = value_iteration(build_model(p))
        full, empty = res.values[1::2], res.values[0::2]
        assert full == pytest.approx([1 / 0.1] * 2, rel=1e-9)
        assert empty == pytest.approx([0.9 / 0.1] * 2, rel=1e-9)

    def test_policy_matches_backward_induction_oracle(self):
        p = make_params(
            n_nodes=2, battery_levels=2, queue_cap=2, max_modulation=2,
            arrival_prob=0.3, channel_gain=(1.0, 0.7), discount=0.9, vi_tol=1e-9,
        )
        res = value_iteration(build_model(p))
        v_ref, pol_ref = backward_induction(build_joint_model(p), omega=p.discount, horizon=400)
        assert np.allclose(res.values, v_ref, atol=1e-6)
        assert list(res.policy) == pol_ref

    def test_residuals_monotone_non_increasing(self, monkeypatch):
        # the plain shifted step's residual is at most omega * (hi - lo) / 2,
        # within omega of the last one, so it never rises; Anderson mixing
        # promises no such thing (on desk instance (2, 5, 6) the default
        # depth's residual rises once in 24 sweeps), so mixing is off here
        monkeypatch.setattr(mdp, "ANDERSON_DEPTH", 0)
        p = make_params(n_nodes=2, battery_levels=2, queue_cap=2, arrival_prob=0.4, discount=0.9)
        res = value_iteration(build_model(p))
        h = res.residual_history
        assert all(a >= b - 1e-15 for a, b in zip(h, h[1:]))

    def test_no_convergence_within_max_sweeps_raises(self, monkeypatch):
        p = make_params(n_nodes=2, battery_levels=2, queue_cap=2, arrival_prob=0.4)
        model = build_model(p)
        assert value_iteration(model).sweeps > 2
        monkeypatch.setattr(mdp, "MAX_SWEEPS", 2)
        with pytest.raises(ValueIterationError, match="after 2 sweeps"):
            value_iteration(model)

    def test_values_non_negative_and_finite(self):
        p = make_params(n_nodes=2, battery_levels=2, queue_cap=2, arrival_prob=0.5)
        res = value_iteration(build_model(p))
        assert np.isfinite(res.values).all()
        assert (res.values >= -1e-15).all()

    def test_values_monotone_in_queue_length(self):
        # more backlog should never reduce expected loss, batteries held fixed
        p = make_params(n_nodes=2, battery_levels=2, queue_cap=2, arrival_prob=0.4,
                        channel_gain=(1.0, 0.7), vi_tol=1e-9)
        res = value_iteration(build_model(p))
        violations = []
        for s in iter_joint_states(p):
            for n in range(p.n_nodes):
                if s[n].queue < p.queue_cap:
                    bumped = list(s)
                    bumped[n] = NodeState(s[n].battery, s[n].queue + 1)
                    lo = res.values[state_index(s, p)]
                    hi = res.values[state_index(tuple(bumped), p)]
                    if hi < lo - 1e-9:
                        violations.append((s, n, lo, hi))
        assert violations == []


class TestChoosers:
    def test_exact_chooser_is_table_lookup(self):
        p = make_params(n_nodes=2, battery_levels=2, queue_cap=2, arrival_prob=0.3,
                        channel_gain=(1.0, 0.7))
        res = value_iteration(build_model(p))
        choose = PolicyChooser(res)
        for s in iter_joint_states(p):
            got = choose([ns.battery for ns in s], [ns.queue for ns in s])
            assert got == res.policy[state_index(s, p)]
        # one byte per joint state, and a pickle round trip keeps every lookup
        assert choose.policy == bytes(res.policy.tolist())
        assert pickle.loads(pickle.dumps(choose)).policy == choose.policy

    def test_myopic_prefers_the_full_node(self):
        p = make_params(n_nodes=3, arrival_prob=0.2)
        choose = MyopicChooser(p)
        assert choose([3, 3, 3], [0, p.queue_cap, 0]) == 1

    def test_myopic_ties_break_to_longest_queue(self):
        p = make_params(n_nodes=3, arrival_prob=0.2)
        choose = MyopicChooser(p)
        # no overflow risk anywhere: all score deltas are zero
        assert choose([3, 3, 3], [1, 3, 2]) == 1

    def test_myopic_agreement_with_exact_policy_recorded(self, capsys):
        p = make_params(n_nodes=2, battery_levels=2, queue_cap=2, arrival_prob=0.4,
                        channel_gain=(1.0, 0.7))
        res = value_iteration(build_model(p))
        approx = MyopicChooser(p)
        agree = 0
        total = 0
        for s in iter_joint_states(p):
            a = approx([ns.battery for ns in s], [ns.queue for ns in s])
            agree += int(a == res.policy[state_index(s, p)])
            total += 1
        print(f"\nmyopic/exact agreement: {agree}/{total} = {agree / total:.1%}")
        assert agree > 0

    @pytest.mark.parametrize("extra", [{}, TWO_ARRIVALS], ids=["k1", "k2"])
    def test_myopic_is_the_one_step_lookahead_of_the_joint_oracle(self, extra):
        # the expected loss of this slot under each action, plus the
        # discounted expected loss of the next slot with every node left to
        # the arrival-only law, from the enumerated joint rows; Q = 3 leaves
        # room for two arrivals to drop from Q - 2 up
        p = make_params(n_nodes=2, battery_levels=2, queue_cap=3, arrival_prob=0.4,
                        channel_gain=(1.0, 0.7), **extra)
        profiles = energy_profiles(p)
        idle_loss = np.array([
            sum(sum(pr * d for _, pr, d in node_law(ns, p, profiles[n], selected=False))
                for n, ns in enumerate(s))
            for s in iter_joint_states(p)
        ])
        lookahead = bellman_q(build_joint_model(p), idle_loss, p.discount)
        choose = MyopicChooser(p)
        for s, scores in zip(iter_joint_states(p), lookahead):
            tied = np.flatnonzero(scores <= scores.min() + 1e-12)
            # ties: longest queue, then lowest battery, then lowest index
            expect = min(tied, key=lambda n: (-s[n].queue, s[n].battery, n))
            assert choose([ns.battery for ns in s], [ns.queue for ns in s]) == expect, s

    def test_myopic_rows_follow_batteries_changed_in_place(self):
        # the chooser against the min over fresh rank lookups, call by call,
        # on a scarce N=10 run whose batteries move: the simulator passes its
        # own lists, which it changes in place between calls
        p = make_params(n_nodes=10, channel_gain=draw_channel_gains(10), bs_power=1.0)
        choose = MyopicChooser(p)

        def fresh(batteries, queues):
            return choose.node_of[min(table[e][q]
                                      for table, e, q in zip(choose.ranks, batteries, queues))]

        calls, moved, last = 0, 0, None

        def checked(batteries, queues):
            nonlocal calls, moved, last
            got = choose(batteries, queues)
            assert got == fresh(batteries, queues), (calls, batteries, queues)
            calls += 1
            moved += last is not None and batteries != last
            last = list(batteries)
            return got

        sim = Simulation(p, EhmdpStrategy(checked), seed=0)
        sim.run(5000)
        assert calls == 5000 and moved >= 100
        # one list, a battery lowered in place between two calls
        batteries, queues = [p.battery_levels] * 10, [p.queue_cap] * 10
        first = choose(batteries, queues)
        batteries[first] = 0
        assert choose(batteries, queues) == fresh(batteries, queues) != first

    @pytest.mark.parametrize("n", [10, 50])
    @pytest.mark.parametrize("extra", [{}, {"bs_power": 1.0}], ids=["defaults", "scarce"])
    def test_myopic_ranks_match_the_gather_through_the_rows(self, n, extra):
        # the score read through the sparse rows, as c_S - c_U plus omega
        # times (S_n - U) c_U, tabulated and sorted like the chooser's keys
        p = make_params(n_nodes=n, channel_gain=draw_channel_gains(n), **extra)
        model = build_model(p)
        cost = expected(model, model.reward)
        ahead = expected(model, cost[0][model.next_state])
        score = (cost[1:] - cost[0]) + p.discount * (ahead[1:] - ahead[0])
        width = p.queue_cap + 1
        keys = [(float(score[node, s]), -(s % width), s // width, node)
                for node in range(n) for s in range(p.per_node_states)]
        order = sorted(keys)
        rank = {k: r for r, k in enumerate(order)}
        choose = MyopicChooser(p)
        assert choose.node_of == [k[3] for k in order]
        # keys run node by node, then battery, then queue, as the ranks do
        assert choose.ranks == np.reshape([rank[k] for k in keys], (n, -1, width)).tolist()


def pipeline_n3_params(**kw):
    """N=3 with every default, channel gains from the default path-loss draw."""
    return make_params(n_nodes=3, channel_gain=draw_channel_gains(3), **kw)


@pytest.fixture(scope="module")
def n3_oracle():
    """The enumerated N=3 joint model (about 1.9 M entries) and its solve."""
    p = pipeline_n3_params()
    joint = build_joint_model(p)
    return p, joint, joint_value_iteration(joint, p.discount, p.vi_tol)


KERNEL_CASES = {
    **{f"desk{n}{k}{q}": desk_params(n, k, q) for n, k, q in DESK},
    "n3": pipeline_n3_params(), "n3-scarce": pipeline_n3_params(bs_power=1.0),
    "n3-k2": pipeline_n3_params(**TWO_ARRIVALS),
}


@pytest.mark.parametrize("p,restrict", [(p, False) for p in KERNEL_CASES.values()]
                         + [(p, True) for p in KERNEL_CASES.values()],
                         ids=[*KERNEL_CASES, *(f"{name}-reachable" for name in KERNEL_CASES)])
def test_kernels_are_the_moves_then_the_arrivals(p, restrict):
    # the solver's stored factors against the sparse rows: U = I x A, S_k = M_k (I x A),
    # on the full model and on the battery levels a run reaches
    model = reachable(build_model(p)) if restrict else build_model(p)
    arrival, moves, m = model.arrival, model.moves, model.moves.shape[1]
    queue_only = np.kron(np.eye(len(model.levels)), arrival)
    assert arrival.shape == (p.queue_cap + 1, p.queue_cap + 1)
    assert np.max(np.abs(queue_only - dense_kernel(model, 0)[0])) <= 1e-15
    assert moves.shape == (p.n_nodes + 1, m, m)
    assert (moves >= 0).all()
    assert np.max(np.abs(moves.sum(axis=2) - 1.0)) <= 1e-15
    # rU is the rows' mean loss of U, bit for bit
    cost = expected(model, model.reward)
    assert model.loss.shape == (m,)
    assert (model.loss == cost[0]).all()
    # every drop is an arrival after the move, so rS_k = M_k rU: the backup
    # and the myopic chooser read each selected loss off the moves
    for k in range(p.n_nodes):
        assert np.max(np.abs(moves[1 + k] @ queue_only - dense_kernel(model, 1 + k)[0])) <= 1e-15
        assert np.max(np.abs(moves[1 + k] @ cost[0] - cost[1 + k])) <= 1e-15


def kept_states(model):
    """The full model's index of each of `model`'s joint states, in `model`'s order."""
    p = model.params
    width = p.queue_cap + 1
    local = (model.levels[:, None] * width + np.arange(width)).reshape(-1)
    grid = np.ix_(*(local,) * p.n_nodes)
    return np.ravel_multi_index(grid, (p.per_node_states,) * p.n_nodes).reshape(-1)


# networks whose runs reach some battery levels only: N=3 at the defaults
# keeps the full level, the scarce network every level but 0, and a desk
# instance that starts empty levels 0, 4 and 5
DROPS_LEVELS = {"n3": pipeline_n3_params(), "n3-scarce": pipeline_n3_params(bs_power=1.0),
                "desk256-empty": replace(desk_params(2, 5, 6), initial_battery=0)}


@pytest.fixture(scope="module")
def full_and_reachable():
    """Per DROPS_LEVELS instance, the full model and its solve, and the same of
    the model on the reachable levels."""
    def solve(name):
        full = build_model(DROPS_LEVELS[name])
        kept = reachable(full)
        return full, value_iteration(full), kept, value_iteration(kept)
    return functools.cache(solve)


class TestReachable:
    """The solve on the battery levels a run can reach, against the full solve."""

    def test_levels_of_the_n3_networks(self, full_and_reachable):
        _, _, kept, _ = full_and_reachable("n3")
        assert kept.levels.tolist() == [5] and kept.n_states == 343
        _, _, kept, _ = full_and_reachable("n3-scarce")
        assert kept.levels.tolist() == [1, 2, 3, 4, 5] and kept.n_states == 35 ** 3

    @pytest.mark.parametrize("name", DROPS_LEVELS)
    def test_kept_set_is_closed(self, name, full_and_reachable):
        full, _, kept, _ = full_and_reachable(name)
        local = np.isin(np.arange(full.moves.shape[1]) // (full.params.queue_cap + 1),
                        kept.levels)
        assert 0 < local.sum() < local.size
        # no move of a kept state puts mass outside the kept states, and the
        # kept rows, as stored, each sum to 1
        assert (full.moves[:, local][:, :, ~local] == 0.0).all()
        assert np.max(np.abs(kept.moves.sum(axis=2) - 1.0)) <= 1e-12
        assert (kept.loss == full.loss[local]).all()

    def test_every_level_reachable_keeps_the_model(self):
        model = build_model(replace(desk_params(2, 2, 2), bs_power=0.5))
        assert model.levels.tolist() == [0, 1, 2]
        assert reachable(model) is model

    @pytest.mark.parametrize("name", DROPS_LEVELS)
    def test_moves_are_c_contiguous(self, name, full_and_reachable):
        # a fancy-indexed copy has other strides, and BLAS sums those in
        # another order: a copy of the full model so made, at bs_power 0.5
        # and N=2, parted 30 states' actions whose Q ties to rounding
        _, _, kept, _ = full_and_reachable(name)
        assert kept.moves.flags.c_contiguous

    @pytest.mark.parametrize("name", DROPS_LEVELS)
    def test_same_policy_as_the_full_solve(self, name, full_and_reachable):
        full, full_res, kept, kept_res = full_and_reachable(name)
        states = kept_states(kept)
        assert (kept_res.levels == kept.levels).all() and kept_res.values.size == states.size
        assert (full_res.policy[states] == kept_res.policy).all()
        assert np.max(np.abs(full_res.values[states] - kept_res.values)) <= full.params.vi_tol

    @pytest.mark.parametrize("name", DROPS_LEVELS)
    def test_chooser_picks_the_full_choosers_node(self, name, full_and_reachable):
        full, full_res, kept, kept_res = full_and_reachable(name)
        p = full.params
        exact, restricted = PolicyChooser(full_res), PolicyChooser(kept_res)
        width, n = p.queue_cap + 1, p.n_nodes
        local = np.unravel_index(kept_states(kept), (p.per_node_states,) * n)
        batteries, queues = (np.transpose(part).tolist() for part in np.divmod(local, width))
        assert [restricted(b, q) for b, q in zip(batteries, queues)] == \
            [exact(b, q) for b, q in zip(batteries, queues)]
        # a level the solve did not hold is refused, not read as another state
        missing = min(set(range(p.battery_levels + 1)) - set(kept.levels.tolist()))
        with pytest.raises(KeyError):
            restricted([missing] * n, [0] * n)
        assert exact([missing] * n, [0] * n) in range(n)


class TestTieRule:
    def test_greedy_policy_takes_lowest_index_within_tolerance(self):
        # rows are actions, columns states
        q = np.array([
            [1.0, 2.0, 5.0, 1e-14],
            [1.0, 1.0, 5.0 - 1e-13, 0.0],
            [1.0 - 4e-16, 3.0, 5.0 - 1e-10, 0.0],
        ])
        # a rounding tie, a clear winner, a real 1e-10 gap, and the absolute
        # floor of the tolerance near zero
        assert greedy_policy(q).tolist() == [0, 1, 2, 0]

    def test_tolerance_is_relative_above_one(self):
        big = 1e6
        q = np.array([[big], [big * (1 - 0.5 * TIE_RTOL)], [big * (1 - 2 * TIE_RTOL)]])
        assert greedy_policy(q).tolist() == [2]
        assert greedy_policy(q[:2]).tolist() == [0]

    def test_n3_policy_is_lowest_index_among_oracle_ties(self, n3_oracle):
        # one Bellman backup of the returned values over the enumerated joint
        # rows: the solver's choice must be the first action within the tie
        # tolerance of that backup's minimum, whatever the summation order
        p, joint, _ = n3_oracle
        res = value_iteration(build_model(p))
        q = bellman_q(joint, res.values, p.discount)
        assert (res.policy == tie_policy(q)).all()
        # and the tolerance only merges rounding ties: real gaps are far above it
        top2 = np.sort(q, axis=1)[:, :2]
        gap = (top2[:, 1] - top2[:, 0]) / np.maximum(1.0, np.abs(top2[:, 0]))
        assert gap[gap > TIE_RTOL].min() > 1e3 * TIE_RTOL
        assert gap[gap <= TIE_RTOL].max(initial=0.0) < 1e-3 * TIE_RTOL


class TestOracleParity:
    """The product-form solve without Anderson mixing against value iteration over
    the enumerated joint rows: the same iterates, so the same sweeps and values."""

    @pytest.fixture(autouse=True)
    def plain_step(self, monkeypatch):
        monkeypatch.setattr(mdp, "ANDERSON_DEPTH", 0)

    @staticmethod
    def assert_same_solve(res, oracle):
        v_ref, pol_ref, sweeps_ref, _ = oracle
        assert np.max(np.abs(res.values - v_ref)) <= 1e-12
        assert res.sweeps == sweeps_ref
        assert (res.policy == pol_ref).all()

    @pytest.mark.parametrize("n,k,q", DESK_N4)
    def test_desk_instances(self, n, k, q, desk_joint):
        p = desk_params(n, k, q)
        res = value_iteration(build_model(p))
        self.assert_same_solve(res, joint_value_iteration(desk_joint(n, k, q), p.discount,
                                                          p.vi_tol))

    def test_n3_defaults(self, n3_oracle):
        p, _, oracle = n3_oracle
        res = value_iteration(build_model(p))
        self.assert_same_solve(res, oracle)
        assert res.residual == pytest.approx(oracle[3][-1], rel=1e-6)


class TestMacQueenStop:
    """The shifted and mixed solve against plain value iteration and the exact optimum."""

    @staticmethod
    def assert_policy_of_plain_vi(res, joint, p):
        _, plain_policy, plain_sweeps, _ = joint_value_iteration(
            joint, p.discount, p.vi_tol, shift=False)
        assert (res.policy == plain_policy).all()
        return plain_sweeps

    @pytest.mark.parametrize("n,k,q", DESK)
    def test_policy_of_plain_vi_on_desk_instances(self, n, k, q):
        p = desk_params(n, k, q)
        self.assert_policy_of_plain_vi(value_iteration(build_model(p)), build_joint_model(p), p)

    def test_policy_of_plain_vi_at_n3_defaults(self, n3_oracle):
        p, joint, _ = n3_oracle
        res = value_iteration(build_model(p))
        assert res.sweeps < self.assert_policy_of_plain_vi(res, joint, p)

    def test_policy_of_plain_vi_at_n3_low_power(self):
        p = pipeline_n3_params(bs_power=1.0)
        res = value_iteration(build_model(p))
        assert res.sweeps < self.assert_policy_of_plain_vi(res, build_joint_model(p), p)

    @pytest.mark.parametrize("n,k,q", DESK)
    def test_within_tolerance_of_the_optimum(self, n, k, q):
        p = desk_params(n, k, q)
        joint = build_joint_model(p)
        res = value_iteration(build_model(p))
        v_star = optimal_values(joint, p.discount)
        # v* is the Bellman fixed point to rounding
        assert np.max(np.abs(bellman_q(joint, v_star, p.discount).min(axis=1) - v_star)) < 1e-10
        assert np.max(np.abs(res.values - v_star)) <= p.vi_tol / 2
        gap = policy_values(joint, res.policy, p.discount) - v_star
        assert -1e-10 < gap.min() and gap.max() <= p.vi_tol

    @pytest.mark.parametrize("extra", ["", ", bs_power=1.0"], ids=["defaults", "scarce"])
    def test_policy_and_sweeps_do_not_depend_on_blas_threads(self, extra):
        # no matmul of the solve is large enough for OpenBLAS to thread, so
        # the summation order, and with it every bit of the values, the sweep
        # count and the policy, is the same at one thread and at two
        code = ("import hashlib; from rwsnsim.core import NetworkParams, draw_channel_gains; "
                "from rwsnsim.mdp import build_model, value_iteration; "
                f"p = NetworkParams(n_nodes=3, channel_gain=draw_channel_gains(3){extra}); "
                "r = value_iteration(build_model(p)); "
                "print(r.sweeps, hashlib.sha256(r.policy.tobytes()).hexdigest(), "
                "hashlib.sha256(r.values.tobytes()).hexdigest())")
        src = str(Path(rwsnsim.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outs.append(done.stdout.split())
        assert outs[0] == outs[1]


class TestAnderson:
    """The mixed solve at the default depth: same operator, same stopping test, same policy."""

    @staticmethod
    def backup_q(model, v):
        backup = mdp._Backup(model)
        tv = backup(v, np.empty_like(v))
        q = backup.actions()
        # the minimum folded in during the call is the rows' minimum, bit for bit
        assert (tv == q.min(axis=0)).all()
        return q.T

    @pytest.mark.parametrize("n,k,q", DESK_N4)
    def test_backup_is_the_joint_bellman_operator(self, n, k, q, desk_joint):
        p = desk_params(n, k, q)
        v = np.random.default_rng(n * k * q).uniform(0.0, 10.0, p.joint_state_count)
        expect = bellman_q(desk_joint(n, k, q), v, p.discount)
        assert np.max(np.abs(self.backup_q(build_model(p), v) - expect)) <= 1e-12

    def test_backup_is_the_joint_bellman_operator_at_n3(self, n3_oracle):
        p, joint, _ = n3_oracle
        v = np.random.default_rng(3).uniform(0.0, 10.0, p.joint_state_count)
        expect = bellman_q(joint, v, p.discount)
        assert np.max(np.abs(self.backup_q(build_model(p), v) - expect)) <= 1e-12

    @pytest.mark.parametrize("n,k,q", DESK)
    def test_policy_of_the_oracle_solve_on_desk_instances(self, n, k, q):
        p = desk_params(n, k, q)
        res = value_iteration(build_model(p))
        _, policy, sweeps, _ = joint_value_iteration(build_joint_model(p), p.discount, p.vi_tol)
        assert (res.policy == policy).all()
        assert res.sweeps < sweeps

    def test_policy_of_the_oracle_solve_at_n3_defaults(self, n3_oracle):
        p, _, (_, policy, sweeps, _) = n3_oracle
        res = value_iteration(build_model(p))
        assert (res.policy == policy).all()
        assert res.residual < p.vi_tol * (1 - p.discount) / (2 * p.discount)
        assert 4 * res.sweeps < sweeps

    def test_swap_symmetric_states_take_the_lower_index(self):
        # nodes 0 and 1 share a channel, so at a state where they also share
        # (battery, queue) selecting either has the same Q; rounding noise in
        # the mixed iterates must stay inside the tie tolerance
        gains = draw_channel_gains(3)
        p = make_params(n_nodes=3, channel_gain=(gains[0], gains[0], gains[2]))
        res = value_iteration(build_model(p))
        m = p.per_node_states
        state = np.arange(p.joint_state_count)
        symmetric = res.policy[state // m ** 2 == (state // m) % m]
        assert symmetric.size == m ** 2
        assert (symmetric != 1).all()
        assert (symmetric == 0).sum() > 0

    def test_forced_fallback_is_the_plain_step(self, monkeypatch):
        # a residual above 0 x the best always falls back: every sweep after
        # the first discards its one remembered sweep, and the iterates are
        # those of the shifted oracle
        p = desk_params(2, 5, 6)
        monkeypatch.setattr(mdp, "ANDERSON_RISE", 0.0)
        res = value_iteration(build_model(p))
        values, policy, sweeps, _ = joint_value_iteration(build_joint_model(p), p.discount,
                                                          p.vi_tol)
        assert res.sweeps == sweeps
        assert res.fallbacks == sweeps - 2
        assert np.max(np.abs(res.values - values)) <= 1e-12
        assert (res.policy == policy).all()

    def test_strict_fallback_still_converges_within_tolerance(self, monkeypatch):
        # falling back on any rise of the residual fires on this instance;
        # the stopping test, and so the bound, are unchanged
        p = desk_params(2, 5, 6)
        joint = build_joint_model(p)
        monkeypatch.setattr(mdp, "ANDERSON_RISE", 1.0)
        res = value_iteration(build_model(p))
        assert res.fallbacks > 0
        assert res.residual < p.vi_tol * (1 - p.discount) / (2 * p.discount)
        v_star = optimal_values(joint, p.discount)
        assert np.max(np.abs(res.values - v_star)) <= p.vi_tol / 2
        gap = policy_values(joint, res.policy, p.discount) - v_star
        assert gap.max() <= p.vi_tol


class TestBlasSlices:
    """No matmul of the solve is large enough for OpenBLAS to wake its threads."""

    @pytest.mark.parametrize("p", [pipeline_n3_params(), desk_params(4, 2, 2)],
                             ids=["n3", "desk422"])
    def test_every_matmul_of_a_backup_is_one_slice(self, p, monkeypatch):
        model = build_model(p)
        backup = mdp._Backup(model)
        v = np.random.default_rng(1).uniform(0.0, 10.0, p.joint_state_count)
        calls = []
        matmul = np.matmul

        def spy(a, b, **kw):
            batch = math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
            calls.append(batch * a.shape[-2] * a.shape[-1] * b.shape[-1])
            return matmul(a, b, **kw)

        monkeypatch.setattr(np, "matmul", spy)
        backup(v, np.empty_like(v))
        monkeypatch.undo()
        assert max(calls) <= mdp.BLAS_SLICE
        # and the spy saw every product: N with A, N with a move, each over every state
        width = p.queue_cap + 1
        assert sum(calls) == p.n_nodes * p.joint_state_count * (width + p.per_node_states)

    @pytest.mark.parametrize("shape,axis", [
        ((40, 20, 25), 0),    # column blocks of one matrix, the last one ragged
        ((37, 40, 25), 1),    # runs of whole indices before the axis, the last one ragged
        ((3, 40, 500), 1),    # column blocks at every index before the axis
        ((20, 25, 40), 2),    # row blocks of the last-axis form, the last one ragged
    ])
    def test_apply_axis_is_the_kernel_along_the_axis(self, shape, axis):
        rng = np.random.default_rng(axis)
        kernel = rng.uniform(0.0, 1.0, (shape[axis], shape[axis]))
        x = rng.uniform(0.0, 1.0, shape)
        out = np.full(x.size, np.nan)
        mdp._apply_axis(kernel, x.reshape(-1), math.prod(shape[:axis]), out)
        operand = "abc"[:axis] + "j" + "abc"[axis + 1:]
        expect = np.einsum(f"ij,{operand}->{operand.replace('j', 'i')}", kernel, x)
        assert np.max(np.abs(out - expect.reshape(-1))) <= 1e-12


@pytest.mark.parametrize("p", [pipeline_n3_params(), desk_params(4, 2, 2)], ids=["n3", "desk422"])
def test_solve_holds_the_same_joint_rows_at_any_node_count(p):
    # v, Tv, common, two work rows and 2 * ANDERSON_DEPTH history rows, and no
    # row per action: at the end, the per-action rows reuse the history's memory
    model = build_model(p)
    tracemalloc.start()
    try:
        value_iteration(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * p.joint_state_count) <= 5 + 2 * mdp.ANDERSON_DEPTH + 0.5
