"""Slot engine semantics: conservation, determinism, strategy behavior."""

from dataclasses import replace

import numpy as np
import pytest

from eqat_oracle import (Decision, EqatController, FixedProbContention, FullQueueContention,
                         advertised, collided_transition, eqat_decide, transmit_ready)
from joint_oracle import NodeState, full_model
from rwsnsim.core import NetworkParams, draw_channel_gains
from rwsnsim.eqat import TxProbDesign, escalate, tx_prob
from rwsnsim.energy import energy_profiles, packet_success_prob
from rwsnsim.mdp import MyopicChooser, PolicyChooser, build_model
from rwsnsim.simulator import (
    BLOCK,
    ArrivalTape,
    EqatStrategy,
    Simulation,
    Strategy,
    make_strategy,
    simulate_run,
    uniforms,
)


def make_params(**kw):
    kw.setdefault("n_nodes", 2)
    return NetworkParams(**kw)


# transmission always succeeds ((1 - 1e-300)**256 == 1.0) and is nearly free
def sure_success_params(n_nodes=1, **kw):
    kw.setdefault("channel_gain", (1e4,) * n_nodes)
    return make_params(n_nodes=n_nodes, ber_target=1e-300, **kw)


ALL_STRATEGIES = ["fq", "rs", "ehmdp", "dfq", "rc", "eqat"]

# a run's substreams after the arrivals' [seed, 0], as `Simulation` opens them
STRATEGY, BER, BACKOFF = 1, 2, 3


def substream(seed, k):
    """A fresh generator on substream [seed, k] of a run."""
    return np.random.default_rng([seed, k])


def strategy_kw(p, name, **kw):
    """Strategy `name`'s constructor keywords `kw`; ehmdp gets the myopic
    chooser of `p` unless `kw` holds a chooser, as a scenario above the state
    budget ships it."""
    if name == "ehmdp":
        kw.setdefault("chooser", MyopicChooser(build_model(p)))
    return kw


class TestBasics:
    def test_zero_slots_zero_metrics(self):
        p = make_params()
        m, _ = simulate_run(p, "fq", slots=0, seed=1)
        assert (m.generated, m.delivered, m.dropped, m.in_queue_final) == (0, 0, 0, 0)
        assert m.loss_rate == 0.0
        assert m.throughput_pps == 0.0

    def test_no_arrivals_all_idle(self):
        p = make_params(arrival_prob=0.0)
        m, traces = simulate_run(p, "fq", slots=200, seed=1, trace=True)
        assert m.generated == m.delivered == m.dropped == 0
        assert all(t.outcome == "idle" for t in traces)

    def test_single_node_centralized_lossless(self):
        p = sure_success_params(arrival_prob=0.4)
        m, _ = simulate_run(p, "fq", slots=5000, seed=3)
        assert m.dropped == 0
        assert m.loss_rate == 0.0
        assert m.delivered == m.generated - m.in_queue_final
        assert m.delivered > 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            p = make_params()
            simulate_run(p, "greedy", slots=1, seed=0)

    def test_strategy_names_have_one_spelling(self):
        with pytest.raises(ValueError, match="unknown strategy 'FQ'") as exc:
            make_strategy("FQ")
        assert all(repr(name) in str(exc.value) for name in ALL_STRATEGIES)

    def test_ehmdp_needs_the_scenario_chooser(self):
        # the simulator builds no chooser of its own
        with pytest.raises(TypeError, match="chooser"):
            make_strategy("ehmdp")

    @pytest.mark.parametrize("name,kw", [
        ("rc", {"contention_prob": 1.7}), ("rc", {"contention_prob": -0.1}),
        ("eqat", {"alpha": -0.5}), ("eqat", {"alpha": float("nan")}),
        ("eqat", {"backoff_window": 0}),
        ("eqat", {"backoff_window": 2.5}), ("eqat", {"backoff_window": True}),
        ("eqat", {"backoff_window": "8"}), ("rc", {"contention_prob": float("nan")}),
    ])
    def test_out_of_range_parameter_rejected(self, name, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            make_strategy(name, **kw)

    def test_same_seed_bit_identical(self):
        p = make_params(n_nodes=4, arrival_prob=0.2)
        for name in ALL_STRATEGIES:
            kw = strategy_kw(p, name)
            a, _ = simulate_run(p, name, slots=500, seed=11, **kw)
            b, _ = simulate_run(p, name, slots=500, seed=11, **kw)
            assert a == b, name

    def test_metrics_count_every_slot_stepped(self):
        # single-slot and repeated run() calls add up to one run of the sum,
        # and the metrics are current after every call
        p = make_params(n_nodes=3, arrival_prob=0.3)
        for name in ALL_STRATEGIES:
            kw = strategy_kw(p, name)
            sim = Simulation(p, make_strategy(name, **kw), seed=2)
            for k in (1, 2):
                sim.run(1)
                ran, _ = simulate_run(p, name, slots=k, seed=2, **kw)
                assert sim.metrics == ran, (name, k)
            sim.run(100)
            m = sim.run(100)
            assert m.slots == sim.slot == 202
            assert m.throughput_pps == m.delivered / (202 * p.slot_len)
            whole, _ = simulate_run(p, name, slots=202, seed=2, **kw)
            assert m == whole, name
            assert m.throughput_pps == whole.throughput_pps

    def test_different_seed_differs(self):
        p = make_params(n_nodes=4, arrival_prob=0.2)
        a, _ = simulate_run(p, "rs", slots=500, seed=11)
        b, _ = simulate_run(p, "rs", slots=500, seed=12)
        assert a != b


# (generated, delivered, dropped, in_queue_final) at seed 4 over 2,500
# slots, two arrival opportunities per slot; recorded before the simulator
# fetched its random streams in blocks, so a change in the order in which any
# stream is consumed shows here. eqat at N=3 kept its counts when the backoff
# became a scaled uniform: its one collision leaves nodes 1 and 2 energy-dead,
# and the backoff only shifts when node 0, alone from then on, sends
GOLDEN = {
    ("ehmdp", 3): (2450, 2153, 288, 9),
    ("fq", 3): (2450, 2153, 288, 9),
    ("rs", 3): (2450, 2125, 317, 8),
    ("eqat", 3): (2450, 793, 1649, 8),
    ("dfq", 3): (2450, 707, 1735, 8),
    ("rc", 3): (2450, 3, 2438, 9),
    ("ehmdp", 10): (2469, 2206, 211, 52),
    ("fq", 10): (2469, 2206, 211, 52),
    ("rs", 10): (2469, 2206, 235, 28),
    ("eqat", 10): (2469, 303, 2112, 54),
    ("dfq", 10): (2469, 261, 2149, 59),
    ("rc", 10): (2469, 253, 2162, 54),
}


def golden_params(n_nodes):
    # N=3 is small enough for the exact solve; N=10 runs ehmdp in myopic mode
    small = {"battery_levels": 2, "queue_cap": 3} if n_nodes == 3 else {}
    return make_params(n_nodes=n_nodes, arrival_prob=0.16 if n_nodes == 3 else 0.05,
                       arrival_period=5e-3, channel_gain=draw_channel_gains(n_nodes), **small)


@pytest.fixture(scope="module")
def golden_n3_solve():
    from rwsnsim.mdp import value_iteration

    return value_iteration(build_model(golden_params(3)))


class TestGoldenMetrics:
    @pytest.mark.parametrize("name,n_nodes", sorted(GOLDEN))
    def test_counts_pinned(self, name, n_nodes, golden_n3_solve):
        p = golden_params(n_nodes)
        assert p.arrivals_per_slot == 2
        exact = name == "ehmdp" and n_nodes == 3
        kw = {"chooser": PolicyChooser(golden_n3_solve)} if exact else strategy_kw(p, name)
        m, _ = simulate_run(p, name, slots=2_500, seed=4, **kw)
        got = (m.generated, m.delivered, m.dropped, m.in_queue_final)
        assert got == GOLDEN[(name, n_nodes)]


class TestInvariants:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_packet_conservation(self, name):
        p = make_params(n_nodes=4, arrival_prob=0.3, channel_gain=(1.3, 1.0, 0.8, 0.6))
        m, _ = simulate_run(p, name, slots=2000, seed=7,
                            **strategy_kw(p, name))
        assert m.generated == m.delivered + m.dropped + m.in_queue_final

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_battery_and_queue_bounds(self, name):
        p = make_params(n_nodes=3, arrival_prob=0.4, channel_gain=(1.2, 0.9, 0.5))
        _, traces = simulate_run(p, name, slots=1500, seed=9, trace=True, **strategy_kw(p, name))
        for t in traces:
            assert all(0 <= b <= p.battery_levels for b in t.batteries)
            assert all(0 <= q <= p.queue_cap for q in t.queues)

    @pytest.mark.parametrize("name", ["fq", "rs", "ehmdp"])
    def test_centralized_never_collides(self, name):
        p = make_params(n_nodes=4, arrival_prob=0.5)
        _, traces = simulate_run(p, name, slots=1500, seed=2, trace=True, **strategy_kw(p, name))
        assert all(t.outcome != "collision" for t in traces)
        assert all(len(t.transmitters) <= 1 for t in traces)

    def test_collision_iff_multiple_transmitters(self):
        p = make_params(n_nodes=4, arrival_prob=0.6)
        _, traces = simulate_run(p, "rc", slots=1500, seed=4, trace=True,
                                 contention_prob=0.5)
        saw_collision = False
        for t in traces:
            assert (t.outcome == "collision") == (len(t.transmitters) >= 2)
            saw_collision |= t.outcome == "collision"
        assert saw_collision

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_outcome_and_energy_dead_counters(self, name):
        p = drain_params(4)
        profiles = energy_profiles(p)
        m, traces = simulate_run(p, name, slots=1500, seed=3, trace=True,
                                 **strategy_kw(p, name))
        assert (m.successes + m.ber_failures + m.collisions + m.charge_only_slots
                + m.idle_slots) == m.slots
        assert m.successes == m.delivered
        traced = [t.outcome for t in traces]
        assert (m.successes, m.ber_failures, m.collisions) == (
            traced.count("success"), traced.count("ber_fail"), traced.count("collision"))
        # the traces call a charge-only slot idle; an idle slot selects no node
        assert m.charge_only_slots + m.idle_slots == traced.count("idle")
        assert m.idle_slots == sum(not t.transmitters for t in traces)
        # a node is energy-dead in a slot when it starts it below its transmit cost
        starts = [(p.initial_battery,) * p.n_nodes] + [t.batteries for t in traces[:-1]]
        assert m.energy_dead_node_slots == sum(
            b < prof.min_tx_level for levels in starts for b, prof in zip(levels, profiles))
        assert m.energy_dead_node_slots > 0


def brute_force_ready(sim):
    return [i for i in range(sim.params.n_nodes)
            if sim.queues[i] >= 1 and sim.batteries[i] >= sim.min_tx[i]]


def shadow_controllers(strategy, n_nodes):
    """Fresh oracle controllers with the strategy's settings, one per node."""
    return [EqatController(design=strategy.design, alpha=strategy.alpha,
                           backoff_window=strategy.backoff_window)
            for _ in range(n_nodes)]


def shadow_outcome(shadow, transmitters, outcome, backoff_rng):
    """Apply one slot's outcome to the oracle controllers, as the engine reports it."""
    if outcome == "collision":
        for i in transmitters:
            shadow[i].on_collision(backoff_rng)
    elif outcome == "success":
        shadow[transmitters[0]].on_success()
    elif outcome == "ber_fail":
        shadow[transmitters[0]].on_ber_failure()


def contention_state(shadow):
    """The oracle's (fails, backoff countdown) lists, to compare with `countdowns`."""
    return [c.fail_count for c in shadow], [c.backoff_remaining for c in shadow]


def countdowns(strategy, slot):
    """`EqatStrategy`'s fails and, from its resume slots, the backoff each
    node still sits out when `slot` starts, as the oracle counts it down."""
    return strategy.fails, [max(0, r - slot) for r in strategy.resume]


# high arrival rate and a lossy link: collisions, bit-error failures, and
# batteries drained below one transmission's cost
def busy_params(n_nodes):
    return make_params(n_nodes=n_nodes, arrival_prob=0.5, ber_target=5e-3,
                       channel_gain=draw_channel_gains(n_nodes))


# a weak downlink and fine battery levels: many nodes lose energy in a
# transmitting slot and gain it in a charge-only slot, so a centrally
# selected node drains below its transmit cost and recharges past it
def drain_params(n_nodes):
    return make_params(n_nodes=n_nodes, arrival_prob=0.2, ber_target=5e-3, bs_power=0.5,
                       battery_quantum=1e-3, battery_levels=12,
                       channel_gain=draw_channel_gains(n_nodes))


class TestIncrementalBookkeeping:
    @pytest.mark.parametrize("n_nodes", [4, 10])
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_powered_list_matches_brute_force_every_slot(self, name, n_nodes):
        p = drain_params(n_nodes)
        sim = Simulation(p, make_strategy(name, **strategy_kw(p, name)), seed=3, trace=True)
        drained = recharged = False
        for _ in range(1500):
            before = len(sim.powered)
            sim.run(1)
            assert transmit_ready(sim) == brute_force_ready(sim)
            assert sim.powered == [i for i in range(n_nodes)
                                   if sim.batteries[i] >= sim.min_tx[i]]
            drained |= len(sim.powered) < before
            recharged |= len(sim.powered) > before
        assert drained
        outcomes = {t.outcome for t in sim.traces}
        if name in ("fq", "rs", "ehmdp"):
            # only a charge-only slot brings a drained node back
            assert recharged
            assert {"success", "ber_fail"} <= outcomes
        else:
            assert {"success", "ber_fail", "collision"} <= outcomes

    def test_powered_list_stays_in_index_order(self):
        # a contention run never recharges a drained node, so order on
        # re-entry is checked directly
        p = make_params(n_nodes=3)
        sim = Simulation(p, make_strategy("fq"), seed=0)
        for node in (2, 0, 1):
            sim._set_level(node, 0)
        assert sim.powered == []
        for node in (2, 0):
            sim._set_level(node, p.battery_levels)
        assert sim.powered == [0, 2]

    @pytest.mark.parametrize("n_nodes", [4, 10])
    def test_eqat_controllers_match_a_shadow_ticking_every_node(self, n_nodes):
        p = busy_params(n_nodes)
        design = TxProbDesign("exponential", rate_q=1.0, rate_e=0.05)
        strategy = EqatStrategy(design, backoff_window=4)
        sim = Simulation(p, strategy, seed=5, trace=True)
        profiles = energy_profiles(p)
        shadow = shadow_controllers(strategy, n_nodes)
        shadow_draw = substream(5, STRATEGY)
        shadow_backoff = substream(5, BACKOFF)
        collided = 0
        for _ in range(1500):
            # a contender transmits when its draw is below its beacon; the
            # others (beacon 0.0) draw nothing
            beacon = advertised(shadow, sim.batteries, sim.queues, p, profiles)
            contenders = [i for i in brute_force_ready(sim) if shadow[i].backoff_remaining <= 0]
            sim.run(1)
            t = sim.traces[-1]
            assert list(t.transmitters) == [i for i in contenders
                                            if shadow_draw.random() < beacon[i]]
            collided += t.outcome == "collision"
            shadow_outcome(shadow, t.transmitters, t.outcome, shadow_backoff)
            for ctl in shadow:
                ctl.tick()
            assert countdowns(strategy, sim.slot) == contention_state(shadow)
        assert collided > 10


class TestBlockDraws:
    @pytest.mark.parametrize("seed", [0, 9])
    def test_substream_layout(self, seed):
        # the strategy, BER and backoff draws are substreams 1, 2 and 3 of the seed
        sim = Simulation(make_params(), make_strategy("fq"), seed=seed)
        for draw, k in ((sim.strategy_uniform, STRATEGY), (sim.ber_uniform, BER),
                        (sim.backoff_uniform, BACKOFF)):
            shadow = uniforms(substream(seed, k))
            assert [draw() for _ in range(BLOCK + 3)] == [shadow() for _ in range(BLOCK + 3)]

    def test_uniforms_equal_repeated_random(self):
        # enough draws to cross two block boundaries
        draw = uniforms(np.random.default_rng(8))
        rng = np.random.default_rng(8)
        for _ in range(2 * BLOCK + 3):
            assert draw() == rng.random()

    @pytest.mark.parametrize("per_slot", [1, 2, 4])
    def test_arrival_tape_equals_per_opportunity_hits(self, per_slot):
        p = make_params(n_nodes=5, arrival_prob=0.3, arrival_period=1e-2 / per_slot)
        assert p.arrivals_per_slot == per_slot
        tape = ArrivalTape(p, seed=6)
        rng = np.random.default_rng([6, 0])
        # enough slots to cross two block boundaries, drawn in three reaches
        slots = 2 * BLOCK // per_slot + 3
        for reach in (1, slots // 2, slots):
            tape.upto(reach)
        assert len(tape.slots) >= slots
        for hits in tape.slots[:slots]:
            expected = []
            for _ in range(per_slot):
                expected += np.flatnonzero(rng.random(p.n_nodes) < p.arrival_prob).tolist()
            assert hits == expected


# every strategy at its defaults
LOOP_CASES = [(name, {}) for name in ALL_STRATEGIES]


def run_state(sim):
    """What slots leave behind: traces, batteries, queues, the powered list,
    the slot count, and EQAT's contention lists."""
    state = (sim.traces, sim.batteries, sim.queues, sim.powered, sim.slot)
    strategy = sim.strategy
    if isinstance(strategy, EqatStrategy):
        state += (strategy.fails, strategy.resume)
    return state


class CountingStrategy(Strategy):
    """fq's choice; records every call the loop makes, with its slot."""

    def __init__(self):
        self.calls = []

    def select(self, sim):
        self.calls.append(("select", sim.slot))
        queues = sim.queues
        return [queues.index(max(queues))]

    def on_outcome(self, sim, transmitters, outcome):
        self.calls.append(("on_outcome", sim.slot))

    def end_of_slot(self, sim):
        self.calls.append(("end_of_slot", sim.slot))


class ScriptedStrategy(Strategy):
    """Selects the given nodes every slot, whatever their state."""

    def __init__(self, nodes):
        self.nodes = nodes

    def select(self, sim):
        return list(self.nodes)


# the default network at N=3, and the scarce one (bs_power 1.0)
SLOT_LAW_PARAMS = {
    "defaults": make_params(n_nodes=3, channel_gain=draw_channel_gains(3)),
    "scarce": make_params(n_nodes=3, channel_gain=draw_channel_gains(3), bs_power=1.0),
}


class TestSharedArrivals:
    @pytest.mark.parametrize("n_nodes", [2, 10])
    def test_runs_on_one_tape_equal_runs_on_their_own(self, n_nodes):
        # every loop case reads one tape in three calls of 700 slots each,
        # taking turns, so the tape grows while the other readers lag behind
        p = busy_params(n_nodes)
        tape = ArrivalTape(p, seed=3)
        cases = [(name, strategy_kw(p, name, **kw)) for name, kw in LOOP_CASES]
        shared = [Simulation(p, make_strategy(name, **kw), seed=3, trace=True,
                             arrivals=tape) for name, kw in cases]
        for _ in range(3):
            for sim in shared:
                sim.run(700)
        assert len(tape.slots) == -(-2100 // BLOCK) * BLOCK   # drawn once for every reader
        for sim, (name, kw) in zip(shared, cases):
            alone = Simulation(p, make_strategy(name, **kw), seed=3, trace=True)
            alone.run(2100)
            assert alone.arrivals is not tape
            assert run_state(sim) == run_state(alone), name
            assert sim.metrics == alone.metrics, name

    def test_a_tape_of_another_seed_or_network_is_refused(self):
        p = make_params(n_nodes=3, arrival_prob=0.3)
        tape = ArrivalTape(p, seed=4)
        others = [(p, 5), (make_params(n_nodes=2, arrival_prob=0.3), 4),
                  (replace(p, arrival_prob=0.4), 4), (replace(p, arrival_period=5e-3), 4)]
        for params, seed in others:
            with pytest.raises(ValueError, match=r"^arrival tape of .* not \(" + str(seed)):
                simulate_run(params, "fq", 10, seed,
                             arrivals=tape)
        # what the arrivals do not depend on may differ
        scarce = replace(p, bs_power=1.0)
        m, _ = simulate_run(scarce, "fq", 10, 4, arrivals=tape)
        assert m.slots == 10


class TestOneSlotLaw:
    """The kernel and the simulator move a battery by the profiles' tables."""

    @pytest.mark.parametrize("network", sorted(SLOT_LAW_PARAMS))
    def test_kernel_moves_read_the_tables(self, network):
        p = SLOT_LAW_PARAMS[network]
        profiles = energy_profiles(p)
        model = full_model(p)
        width, m = p.queue_cap + 1, p.per_node_states
        for node, prof in enumerate(profiles):
            for level in range(p.battery_levels + 1):
                for queue in range(width):
                    tx = queue >= 1 and level >= prof.min_tx_level
                    want = {prof.after_tx[level] if tx else prof.after_charge[level]}
                    s = level * width + queue
                    # the dense move M and the sparse rows of the selected kernel
                    assert set(np.flatnonzero(model.moves[node + 1, s]) // width) == want
                    r = (node + 1) * m + s
                    row = model.next_state[model.row_ptr[r]:model.row_ptr[r + 1]]
                    assert set(row // width) == want

    @pytest.mark.parametrize("network", sorted(SLOT_LAW_PARAMS))
    def test_a_forced_slot_lands_on_the_table(self, network):
        p = SLOT_LAW_PARAMS[network]
        profiles = energy_profiles(p)
        for node, prof in enumerate(profiles):
            other = (node + 1) % p.n_nodes
            for level in range(p.battery_levels + 1):
                can_send = level >= prof.min_tx_level
                cases = [  # (selected, queue, outcomes, table)
                    ([node], 0, {"idle"}, prof.after_charge),
                    ([node], 1, {"success", "ber_fail"} if can_send else {"idle"},
                     prof.after_tx if can_send else prof.after_charge),
                    ([node, other], 1, {"collision"}, prof.after_collision),
                ]
                for selected, queue, outcomes, table in cases:
                    sim = Simulation(p, ScriptedStrategy(selected), seed=level, trace=True)
                    sim._set_level(node, level)
                    sim.queues[node] = queue
                    sim.run(1)
                    assert sim.traces[0].outcome in outcomes
                    assert sim.batteries[node] == table[level], (node, level, selected)
                    assert sim.powered == [i for i, prof_i in enumerate(profiles)
                                           if sim.batteries[i] >= prof_i.min_tx_level]


class TestOneSlotLoop:
    @pytest.mark.parametrize("name,kw", LOOP_CASES,
                             ids=[f"{n}-{kw}" if kw else n for n, kw in LOOP_CASES])
    def test_steps_and_one_run_leave_identical_state(self, name, kw):
        p = busy_params(4)
        kw = strategy_kw(p, name, **kw)
        stepped = Simulation(p, make_strategy(name, **kw), seed=8, trace=True)
        for _ in range(400):
            stepped.run(1)
        whole = Simulation(p, make_strategy(name, **kw), seed=8, trace=True)
        whole.run(400)
        assert len(whole.traces) == 400
        assert run_state(stepped) == run_state(whole)
        assert stepped.metrics == whole.metrics

    def test_overridden_hooks_run_once_per_slot_in_order(self):
        # the loop calls select then on_outcome each slot, and never end_of_slot,
        # though the strategy defines one
        strategy = CountingStrategy()
        p = make_params(n_nodes=3, arrival_prob=0.3)
        sim = Simulation(p, strategy, seed=4)
        for _ in range(3):
            sim.run(1)
        sim.run(5)
        sim.run(0)
        assert strategy.calls == [(hook, slot) for slot in range(8)
                                  for hook in ("select", "on_outcome")]

    def test_no_op_hooks_are_not_called(self):
        # a hook a strategy leaves undefined is None, which the loop skips;
        # rc and dfq set EQAT's on_outcome back to None
        p = make_params()
        for name in ALL_STRATEGIES:
            strategy = make_strategy(name, **strategy_kw(p, name))
            assert (strategy.on_outcome is None) == (name != "eqat"), name
            if name in ("fq", "rs", "ehmdp"):
                assert strategy.bind is None, name

    def test_rebinds_what_the_caller_replaced_between_calls(self):
        p = make_params(n_nodes=3, arrival_prob=0.0)
        sim = Simulation(p, make_strategy("fq"), seed=0, trace=True)
        sim.run(1)
        sim.queues = [0, 2, 0]
        sim.traces = []
        sim.run(1)
        assert sim.traces[0].transmitters == (1,)
        assert sim.metrics.in_queue_final == sum(sim.queues)


class TestStrategies:
    def test_fq_picks_unique_longest(self):
        p = make_params(n_nodes=3)
        sim = Simulation(p, make_strategy("fq"), seed=0)
        sim.queues = [2, 5, 3]
        assert sim.strategy.select(sim) == [1]

    def test_fq_ties_to_lowest_index(self):
        p = make_params(n_nodes=3)
        sim = Simulation(p, make_strategy("fq"), seed=0)
        sim.queues = [4, 4, 1]
        assert sim.strategy.select(sim) == [0]

    def test_rs_skips_empty_queues(self):
        p = make_params(n_nodes=3)
        sim = Simulation(p, make_strategy("rs"), seed=0)
        sim.queues = [0, 0, 0]
        assert sim.strategy.select(sim) == []
        sim.queues = [0, 2, 0]
        assert sim.strategy.select(sim) == [1]

    def test_rs_uniform_within_3_sigma(self):
        p = make_params(n_nodes=5)
        sim = Simulation(p, make_strategy("rs"), seed=17)
        sim.queues = [3, 3, 0, 3, 3]
        draws = 100_000
        counts = {0: 0, 1: 0, 3: 0, 4: 0}
        for _ in range(draws):
            (k,) = sim.strategy.select(sim)
            counts[k] += 1
        expected = draws / 4
        sigma = (draws * 0.25 * 0.75) ** 0.5
        for k, c in counts.items():
            assert abs(c - expected) <= 3 * sigma, counts

    def test_eqat_backoff_uniform_within_3_sigma(self):
        window = 5
        strategy = make_strategy("eqat", backoff_window=window)
        p = make_params(n_nodes=2)
        sim = Simulation(p, strategy, seed=17)
        counts = dict.fromkeys(range(1, window + 1), 0)
        collisions = 50_000
        for _ in range(collisions):
            strategy.on_outcome(sim, [0, 1], "collision")
            for r in strategy.resume:
                counts[r - sim.slot] += 1
        draws = 2 * collisions
        expected = draws / window
        sigma = (draws * (1 / window) * (1 - 1 / window)) ** 0.5
        for b, c in counts.items():
            assert abs(c - expected) <= 3 * sigma, counts

    def test_rs_single_backlogged_node_consumes_a_uniform(self):
        # a lone backlogged node is still chosen by a draw, so the choices
        # after it are the other run's, one uniform later
        picks = []
        for lone_first in (True, False):
            p = make_params(n_nodes=3)
            sim = Simulation(p, make_strategy("rs"), seed=11)
            if lone_first:
                sim.queues = [0, 2, 0]
                assert sim.strategy.select(sim) == [1]
            sim.queues = [1, 1, 1]
            picks.append([sim.strategy.select(sim)[0] for _ in range(200)])
        after_lone, fresh = picks
        assert after_lone[:-1] == fresh[1:]

    def test_eqat_backoff_one_uniform_per_transmitter_in_order(self):
        window = 8
        strategy = make_strategy("eqat", backoff_window=window)
        p = make_params(n_nodes=3)
        sim = Simulation(p, strategy, seed=6)
        # collisions in slots 4 and 6: each transmitter sits out 1 + int(u * window)
        # slots from the next one, so it may contend again in slot t + 1 + int(u * window)
        sim.slot = 4
        strategy.on_outcome(sim, [2, 0], "collision")
        sim.slot = 6
        strategy.on_outcome(sim, [1, 2], "collision")
        u = uniforms(substream(6, BACKOFF))
        first = {2: 1 + int(u() * window), 0: 1 + int(u() * window)}
        second = {1: 1 + int(u() * window), 2: 1 + int(u() * window)}
        assert strategy.resume == [4 + first[0], 6 + second[1], 6 + second[2]]
        assert strategy.fails == [1, 1, 2]

    def test_eqat_backoff_window_above_2_pow_32_accepted(self):
        # the scaled uniform has no range limit of its own
        window = 2**32 + 1
        strategy = make_strategy("eqat", backoff_window=window)
        p = make_params(n_nodes=2)
        sim = Simulation(p, strategy, seed=3)
        for _ in range(100):
            strategy.on_outcome(sim, [0, 1], "collision")
            assert all(1 <= r - sim.slot <= window for r in strategy.resume)

    def test_dfq_two_full_nodes_collide(self):
        p = make_params(n_nodes=3, arrival_prob=0.0)
        sim = Simulation(p, make_strategy("dfq"), seed=0)
        sim.queues = [p.queue_cap, p.queue_cap, 2]
        assert sim.strategy.select(sim) == [0, 1]
        sim.run(1)
        assert sim.traces is None
        assert sim.metrics.delivered == 0

    def test_rc_certain_contention_never_delivers(self):
        p = make_params(n_nodes=2, arrival_prob=1.0)
        m, traces = simulate_run(p, "rc", slots=400, seed=5, trace=True,
                                 contention_prob=1.0)
        assert m.delivered == 0
        assert any(t.outcome == "collision" for t in traces)

    def test_ehmdp_exact_uses_policy(self):
        from rwsnsim.mdp import value_iteration

        p = make_params(n_nodes=2, battery_levels=2, queue_cap=2, arrival_prob=0.3,
                        channel_gain=(1.0, 0.7))
        res = value_iteration(build_model(p))
        m, traces = simulate_run(p, "ehmdp", slots=300, seed=6, trace=True,
                                 chooser=PolicyChooser(res))
        # replay: every pick must match the policy at the pre-slot state
        sim = Simulation(p, make_strategy("ehmdp", chooser=PolicyChooser(res)), seed=6)
        for t in traces:
            expect = sim.strategy.select(sim)
            assert list(t.transmitters) in ([], expect)
            sim.run(1)


class TestEqatIntegration:
    def test_matches_decide_op_slot_by_slot(self):
        # the default design transmits at a full battery (sigmoid's f is 0 there,
        # so a run from full batteries would never send)
        p = make_params(n_nodes=3, arrival_prob=0.3, channel_gain=(1.2, 1.0, 0.8))
        strategy = EqatStrategy()
        profiles = energy_profiles(p)
        sim = Simulation(p, strategy, seed=21)
        shadow_rng = substream(21, STRATEGY)
        shadow_backoff = substream(21, BACKOFF)
        ctls = shadow_controllers(strategy, p.n_nodes)
        outcomes = set()
        for slot in range(300):
            sim.slot = slot   # as the slot loop does, for the hooks
            assert countdowns(strategy, slot) == contention_state(ctls)
            beacon = advertised(ctls, sim.batteries, sim.queues, p, profiles)
            fails_before = list(strategy.fails)
            expected = []
            for i in range(p.n_nodes):
                s = NodeState(sim.batteries[i], sim.queues[i])
                if eqat_decide(ctls[i], s, p, shadow_rng, profile=profiles[i]) == Decision.TRANSMIT:
                    expected.append(i)
            got = strategy.select(sim)
            assert got == expected
            # resolve the slot through the engine path
            outcome = "idle"
            if len(got) == 1 and got[0] in transmit_ready(sim):
                outcome = "success" if sim.ber_uniform() < sim.ps else "ber_fail"
                if outcome == "success":
                    sim.queues[got[0]] -= 1
                sim._set_level(got[0], profiles[got[0]].after_tx[sim.batteries[got[0]]])
            elif len(got) >= 2:
                outcome = "collision"
                for t in got:
                    sim._set_level(t, profiles[t].after_collision[sim.batteries[t]])
            strategy.on_outcome(sim, got, outcome)
            shadow_outcome(ctls, got, outcome, shadow_backoff)
            outcomes.add(outcome)
            # a slot with no transmitter leaves every fail count alone
            for mine, theirs in zip(strategy.fails, fails_before):
                if outcome == "idle":
                    assert mine == theirs
            draws = sim.arrivals.rng.random(p.n_nodes)
            for n in range(p.n_nodes):
                if draws[n] < p.arrival_prob and sim.queues[n] < p.queue_cap:
                    sim.queues[n] += 1
            for ctl in ctls:
                ctl.tick()
        assert {"success", "collision"} <= outcomes

    def test_default_run_keeps_delivering_to_its_end(self):
        # each node decides from its own state: no other contender's beacon can
        # hold a backlogged network silent, so every stretch of a long run delivers
        p = make_params(n_nodes=3)
        _, traces = simulate_run(p, "eqat", slots=5000, seed=0, trace=True)
        delivered = [sum(t.outcome == "success" for t in traces[k:k + 500])
                     for k in range(0, 5000, 500)]
        assert min(delivered) > 0, delivered

    def test_single_node_equals_centralized_run(self):
        # a lone contender with p == 1 behaves exactly like a centrally
        # scheduled single node, on identical substreams
        p = make_params(n_nodes=1, arrival_prob=0.3, channel_gain=(1e4,))
        design = TxProbDesign("exponential", rate_q=1000.0, rate_e=1e-12)
        for seed in range(10):
            a, _ = simulate_run(p, "eqat", slots=3000, seed=seed, design=design)
            b, _ = simulate_run(p, "rs", slots=3000, seed=seed)
            assert a == b, seed

    def test_contenders_follow_queues_the_caller_replaced(self):
        # `Simulation` lets a caller replace `queues` after construction and
        # between calls; each slot's transmitters must come from the queues,
        # batteries, resume slots and fail counts as they are when it starts
        p = make_params(n_nodes=3)
        strategy = EqatStrategy()
        sim = Simulation(p, strategy, seed=0, trace=True)
        shadow = uniforms(substream(0, STRATEGY))
        for queues in ([p.queue_cap] * 3, [0, 2, 0], [1, 0, p.queue_cap]):
            sim.queues = list(queues)
            for _ in range(3):
                contenders = [i for i in brute_force_ready(sim) if strategy.resume[i] <= sim.slot]
                expected = tuple(
                    i for i in contenders
                    if shadow() < escalate(tx_prob(strategy.design, sim.batteries[i],
                                                   sim.queues[i], p),
                                           strategy.alpha, strategy.fails[i]))
                sim.run(1)
                assert sim.traces[-1].transmitters == expected
        assert any(t.transmitters for t in sim.traces)

    def test_backoff_follows_collision(self):
        p = make_params(n_nodes=2, arrival_prob=0.9, channel_gain=(1e4, 1e4))
        design = TxProbDesign("exponential", rate_q=1000.0, rate_e=1e-12)  # both contend hard
        strategy = EqatStrategy(design, backoff_window=5)
        sim = Simulation(p, strategy, seed=13, trace=True)
        saw = False
        for _ in range(200):
            before = list(strategy.resume)
            sim.run(1)
            t = sim.traces[-1]
            for i, r in enumerate(strategy.resume):
                # only a collider's resume slot moves: 1..5 slots after the collision's
                assert (r != before[i]) == (t.outcome == "collision" and i in t.transmitters)
                if r != before[i]:
                    assert t.slot + 1 <= r <= t.slot + 5
                    saw = True
        assert saw


def recorded_draws(sim):
    """Make `sim`'s strategy uniform record each value it hands out; returns the record."""
    drawn = []
    draw = sim.strategy_uniform

    def record():
        drawn.append(draw())
        return drawn[-1]

    sim.strategy_uniform = record
    return drawn


class TestContentionPass:
    """`EqatStrategy.select` is one pass over the powered nodes: one strategy
    uniform per contender, in index order, against the contender's beacon."""

    @staticmethod
    def hand_set(seed, alpha):
        """A run before its first slot, with its oracle controllers: node 0 is
        below its transmit cost, node 1 powered with an empty queue, node 2
        backing off and node 3 one failed frame up; 3, 4 and 5 contend."""
        p = make_params(n_nodes=6)
        strategy = EqatStrategy(alpha=alpha)
        sim = Simulation(p, strategy, seed)
        sim.queues[:] = [2, 0, 3, 1, 2, p.queue_cap]
        sim._set_level(0, 0)
        strategy.resume[2] = sim.slot + 3
        strategy.fails[3] = 1
        ctls = shadow_controllers(strategy, p.n_nodes)
        ctls[2].backoff_remaining = 3
        ctls[3].fail_count = 1
        return p, sim, ctls

    # no escalation (the fixed-table presets' alpha), a small one and the default
    @pytest.mark.parametrize("alpha", [0.0, 0.05, 0.5])
    def test_one_draw_per_contender_in_index_order(self, alpha):
        chosen = set()
        for seed in range(30):
            p, sim, ctls = self.hand_set(seed, alpha)
            profiles = energy_profiles(p)
            beacon = advertised(ctls, sim.batteries, sim.queues, p, profiles)
            assert [i for i, b in enumerate(beacon) if b] == [3, 4, 5]
            base = tx_prob(sim.strategy.design, sim.batteries[3], 1, p)
            assert beacon[3] == escalate(base, alpha, 1)
            assert (beacon[3] > base) == (alpha > 0)
            drawn = recorded_draws(sim)
            got = sim.strategy.select(sim)
            assert drawn == substream(seed, STRATEGY).random(3).tolist()
            shadow = substream(seed, STRATEGY)
            expected = []
            for i in range(p.n_nodes):
                s = NodeState(sim.batteries[i], sim.queues[i])
                if eqat_decide(ctls[i], s, p, shadow, profiles[i]) == Decision.TRANSMIT:
                    expected.append(i)
            assert got == expected, seed
            chosen.update(got)
        assert chosen == {3, 4, 5}


# rc at its range's ends, halfway and its default, and dfq
PRESET_CASES = [("rc", {"contention_prob": cp}) for cp in (0.0, 0.5, 0.75, 1.0)] + [("dfq", {})]


class TestContentionPresets:
    """`rc` and `dfq` are the EQAT loop on fixed tables; every slot plays as
    under the direct strategies of `eqat_oracle`."""

    @pytest.mark.parametrize("network", [{}, {"bs_power": 1.0}], ids=["defaults", "scarce"])
    @pytest.mark.parametrize("n_nodes", [2, 3, 10, 50])
    @pytest.mark.parametrize("name,kw", PRESET_CASES,
                             ids=[f"{n}-{kw}" if kw else n for n, kw in PRESET_CASES])
    def test_preset_plays_as_the_direct_strategy(self, name, kw, n_nodes, network):
        p = make_params(n_nodes=n_nodes, channel_gain=draw_channel_gains(n_nodes), **network)
        direct = {"rc": FixedProbContention, "dfq": FullQueueContention}[name]
        for seed in range(3):
            preset = Simulation(p, make_strategy(name, **kw), seed, trace=True)
            assert type(preset.strategy).select is EqatStrategy.select
            oracle = Simulation(p, direct(**kw), seed, trace=True)
            assert preset.run(3000) == oracle.run(3000), seed
            assert preset.traces == oracle.traces, seed


class TestSelectedNodeLawFrequencies:
    def test_empirical_masses_match_transition_law(self):
        # single node under a centralized scheduler, interior states only
        p = make_params(n_nodes=1, arrival_prob=0.85, ber_target=5e-4)
        ps = packet_success_prob(p)
        lam = p.arrival_prob
        expect = {
            +1: (1 - ps) * lam,
            -1: ps * (1 - lam),
            0: (1 - ps) * (1 - lam) + ps * lam,
        }
        strategy = make_strategy("fq")
        sim = Simulation(p, strategy, seed=31)
        counts = {+1: 0, -1: 0, 0: 0}
        n_obs = 0
        for _ in range(120_000):
            q0 = sim.queues[0]
            b0 = sim.batteries[0]
            interior = 1 <= q0 <= p.queue_cap - 1 and b0 >= sim.min_tx[0]
            sim.run(1)
            if interior:
                counts[sim.queues[0] - q0] += 1
                n_obs += 1
        assert n_obs > 50_000
        for dq, pr in expect.items():
            sigma = (n_obs * pr * (1 - pr)) ** 0.5
            assert abs(counts[dq] - n_obs * pr) <= 3 * sigma, (dq, counts, n_obs)


class TestCollidedNodeLawFrequencies:
    def test_empirical_masses_match_collided_law(self):
        # node 0 contends under rc against one always-ready competitor, which
        # transmits with the contention probability; its next state then
        # follows the oracle's collided law. Outcomes are keyed by (battery
        # fell, queue change): a fall is a collision. A deep battery keeps
        # runs of collisions from draining either node.
        cp = 0.5
        p = make_params(arrival_prob=0.3, battery_levels=20, channel_gain=(1e4, 1e4))
        sim = Simulation(p, make_strategy("rc", contention_prob=cp), seed=7, trace=True)
        counts, expect, laws = {}, {}, {}
        n_obs = 0
        for _ in range(120_000):
            s = NodeState(sim.batteries[0], sim.queues[0])
            ready = transmit_ready(sim) == [0, 1] and s.queue < p.queue_cap
            sim.traces = []
            sim.run(1)
            if not (ready and 0 in sim.traces[-1].transmitters):
                continue
            if s not in laws:
                laws[s] = collided_transition(s, p, 0, [cp])
            for ns, pr in laws[s]:
                key = (ns.battery < s.battery, ns.queue - s.queue)
                expect[key] = expect.get(key, 0.0) + pr
            key = (sim.batteries[0] < s.battery, sim.queues[0] - s.queue)
            counts[key] = counts.get(key, 0) + 1
            n_obs += 1
        assert n_obs > 30_000
        assert counts.get((True, -1), 0) == 0  # a collided packet never leaves
        assert set(counts) <= set(expect)
        for key, mass in expect.items():
            pr = mass / n_obs
            sigma = (n_obs * pr * (1 - pr)) ** 0.5
            assert abs(counts.get(key, 0) - mass) <= 3 * sigma, (key, counts, expect)


class TestMonteCarloOrdering:
    def test_exact_policy_not_worse_than_random_selection(self):
        p = make_params(n_nodes=2, battery_levels=2, queue_cap=2, arrival_prob=0.6,
                        channel_gain=(1.0, 0.7))
        from rwsnsim.mdp import value_iteration

        chooser = PolicyChooser(value_iteration(build_model(p)))
        loss_ehmdp = []
        loss_rs = []
        for seed in range(20):
            a, _ = simulate_run(p, "ehmdp", slots=10_000, seed=seed, chooser=chooser)
            b, _ = simulate_run(p, "rs", slots=10_000, seed=seed)
            loss_ehmdp.append(a.loss_rate)
            loss_rs.append(b.loss_rate)
        assert np.mean(loss_ehmdp) <= np.mean(loss_rs)


def _push(kernel, x, before):
    """The flat tensor x times `kernel` along the axis after `before` entries:
    one forward step of a distribution, new[a, t, c] = sum_s x[a, s, c] kernel[s, t]."""
    k = kernel.shape[0]
    if x.size == before * k:   # the last axis: one gemm, about twice as fast at N=3
        return (x.reshape(before, k) @ kernel).reshape(-1)
    return (np.ascontiguousarray(kernel.T) @ x.reshape(before, k, -1)).reshape(-1)


def closed_loop_delivered(model, policy, slots, tol=1e-9):
    """Expected packets delivered per slot over the first `slots` slots of the
    closed-loop chain of `policy` on `model`'s states, from `initial_battery`
    and empty queues, as the simulator starts.

    The joint distribution moves through the stored factors alone: the mass
    of the states where the policy selects node k by M_k along node k's axis,
    then all of it by A along every queue axis. A slot's expected delivery
    is each state's mass times its selected node's expected departures, read
    off M_k as the queue's expected drop. Once a step moves the distribution
    by less than `tol` in L1, the remaining slots are taken at the rate it
    has reached.
    """
    p = model.params
    n, m, width = p.n_nodes, model.moves.shape[1], p.queue_cap + 1
    queue = np.arange(m) % width
    departs = (model.moves[1:] * (queue[:, None] - queue)).sum(axis=2)
    local = np.indices((m,) * n).reshape(n, -1)
    delivered = departs[policy, local[policy, np.arange(policy.size)]]
    selects = [policy == k for k in range(n)]
    pi = np.zeros(policy.size)
    start = list(model.levels).index(p.initial_battery) * width
    pi[np.ravel_multi_index((start,) * n, (m,) * n)] = 1.0
    total = 0.0
    for step in range(1, slots + 1):
        total += pi @ delivered
        nxt = sum(_push(model.moves[1 + k], np.where(selects[k], pi, 0.0), m ** k)
                  for k in range(n))
        for k in range(n):
            nxt = _push(model.arrival, nxt, m ** k * len(model.levels))
        change = np.abs(nxt - pi).sum()
        pi = nxt
        if change < tol:
            break
    return (total + (slots - step) * (pi @ delivered)) / slots


class TestModelAgreement:
    """The model and the simulator agree at the policy level: the exact N=3
    policy's closed-loop chain, pushed through A and the M_k, predicts the
    delivered per slot that the simulator measures. The solve is the one
    `run_experiment` runs, on the battery levels a run reaches."""

    @pytest.mark.parametrize("network", [{}, {"bs_power": 1.0}], ids=["defaults", "scarce"])
    def test_predicted_delivery_within_3_stderr_of_simulation(self, network):
        from rwsnsim.mdp import value_iteration

        p = make_params(n_nodes=3, channel_gain=draw_channel_gains(3), **network)
        model = build_model(p)
        solve = value_iteration(model)
        slots = 5_000
        predicted = closed_loop_delivered(model, solve.policy, slots)
        chooser = PolicyChooser(solve)
        per_seed = [simulate_run(p, "ehmdp", slots, seed, chooser=chooser)[0].delivered / slots
                    for seed in range(5)]
        stderr = np.std(per_seed, ddof=1) / np.sqrt(len(per_seed))
        assert abs(predicted - np.mean(per_seed)) <= 3 * stderr, (predicted, per_seed)


class TestAbsorbingState:
    """A modelling artefact, pinned until contention gets a charging rule
    (ROADMAP item 1): under contention only a lone transmitter is charged,
    so a node below its transmit cost never transmits and never charges."""

    @pytest.mark.parametrize("name", ["dfq", "rc", "eqat"])
    def test_a_node_below_its_cost_stays_there(self, name):
        p = make_params(n_nodes=3, channel_gain=draw_channel_gains(3))
        profiles = energy_profiles(p)
        sim = Simulation(p, make_strategy(name), seed=7, trace=True)
        node = 1
        level = profiles[node].min_tx_level - 1
        assert level >= 0
        sim._set_level(node, level)
        for _ in range(300):
            below = [i for i, prof in enumerate(profiles) if sim.batteries[i] < prof.min_tx_level]
            dead = sim.metrics.energy_dead_node_slots
            sim.run(1)
            assert node in below
            assert sim.metrics.energy_dead_node_slots - dead == len(below)
        assert all(node not in t.transmitters for t in sim.traces)
        assert all(t.batteries[node] == level for t in sim.traces)
        # not vacuous: its queue filled, and the other nodes transmitted
        assert sim.queues[node] == p.queue_cap
        assert sum(t.outcome in ("success", "ber_fail") for t in sim.traces) > 0


class TestCentralizedLock:
    """A modelling artefact, pinned until the energy rounding changes (ROADMAP item 2).

    Energy is floored to whole battery levels. In the scarce network
    (bs_power 1.0) at N=6 that leaves node 0 a net change of -1 per
    transmitting slot and no harvest in a charge-only slot, so once it drains
    below its transmit cost it never recovers. `fq` ties to the lowest index
    among full queues and keeps picking it: every slot is a charge-only slot
    of an energy-dead node. The traces call such a slot idle; the outcome
    counters tell it apart from a slot with no node selected.
    """

    def test_fq_locks_on_the_drained_node(self):
        p = make_params(n_nodes=6, bs_power=1.0, slot_len=10e-3,
                        channel_gain=draw_channel_gains(6))
        prof = energy_profiles(p)[0]
        assert (prof.min_tx_level, prof.delta_levels, prof.harvest_only_levels) == (2, -1, 0)
        m, traces = simulate_run(p, "fq", 2000, 0, trace=True)
        last = traces[-1000:]
        assert all(t.transmitters == (0,) for t in last)
        assert all(t.outcome == "idle" for t in last)
        assert all(t.batteries[0] < prof.min_tx_level for t in last)
        # every slot traced idle was node 0 charging, none had no node selected
        assert m.idle_slots == 0
        assert m.charge_only_slots == sum(t.outcome == "idle" for t in traces) >= len(last)
        assert m.energy_dead_node_slots >= len(last)


class TestLowestIndexTie:
    """A modelling artefact, pinned until ties among full queues rotate (ROADMAP item 23).

    At defaults N=10 the network is overloaded, so every queue sits near Q
    and the tie rule picks the node. `fq` takes the lowest index among the
    longest queues and the myopic chooser breaks its ties by index last, so
    both starve the high indices alike; `rs` spreads its deliveries evenly.
    Every policy that serves a packet in every slot drops the same, so
    throughput and loss do not show it.
    """

    @staticmethod
    def delivered_per_node(p, name, **kw):
        _, traces = simulate_run(p, name, 5000, 0, trace=True, **kw)
        counts = [0] * p.n_nodes
        for t in traces:
            if t.outcome == "success":
                counts[t.transmitters[0]] += 1
        return counts

    def test_fq_and_myopic_ehmdp_starve_the_high_indices_and_rs_does_not(self):
        p = make_params(n_nodes=10, channel_gain=draw_channel_gains(10))
        fq = self.delivered_per_node(p, "fq")
        assert self.delivered_per_node(p, "ehmdp", chooser=MyopicChooser(build_model(p))) == fq
        assert fq[-1] < 0.01 * fq[0]
        rs = self.delivered_per_node(p, "rs")
        assert min(rs) > 0.5 * max(rs)
