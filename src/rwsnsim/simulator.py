"""Slotted Monte-Carlo engine comparing central scheduling with contention.

Slot order of events: the strategy picks the transmitter(s); a lone
transmitter gets a packet-error draw and the downlink charge, two or more
collide (losing transmit energy, no charge); the strategy is told the
outcome (EQAT updates its fail counts and draws backoffs); then arrivals
are applied, dropping on full queues. A run is strictly sequential and
deterministic given its seed: arrivals, strategy choices, error draws, and
backoff draws each consume their own substream (see `Simulation`), so runs
that differ only in strategy see identical arrival processes (common random
numbers). A run derives every input it can from (params, seed); its caller
passes only what runs share: the arrival tape and the ehmdp chooser.

Those arrivals are drawn once per seed and network. An `ArrivalTape` owns
the arrival substream and keeps each slot's hits; every run of that seed
reads the same tape (`run_experiment` gives one to all the runs of a
(scenario, seed)), and a run given none draws a private one. The tape keeps
every slot it has drawn until its last reader is gone: about 90 B a slot at
N=10 and 185 B at N=50 at the default arrival probability of 0.3, so 0.37 MB
for 2,000 slots at N=50 and 18.5 MB for 100,000, where a stream drawn per
run would hold one block.

One slot loop. `Simulation.run(slots)` is the only code that plays a slot.
At the start of each call the loop binds to locals what stays fixed from
slot to slot: the queue, battery and powered lists, the per-node transmit
costs and battery-move tables, the draw functions, the arrival tape's slots
(drawn through the call's last slot, and read by slot index), the
strategy's bound `select` and hooks, and the trace list. It counts packets
and slot outcomes in locals, slot by slot, except two counts that it keeps
per call: `generated`, summed once over the tape's slots of the call, and
the energy-dead node-slots, which change only when a move crosses a
transmit cost, so each crossing adds the current count times the slots
since the last one, and the call's end adds the rest. When the call ends it
writes them to `metrics` together with `slots`, `in_queue_final` and the
two rates, so `metrics` is current after every call (`slot` is kept current
during the call, for the strategy). Binding per call, not per run, lets a
caller replace `queues` or `traces` between calls, and lets a `select`
patched onto the strategy's class after construction (the benchmark's
tracer does this) take effect.

Hook contract. A strategy implements `select`; its optional hooks, `bind`
(called once, from the constructor) and `on_outcome` (called after the
slot's moves), are None until it defines them, and the engine calls only
those that are not None. Only `eqat` defines `on_outcome`, since a slot's
outcome is all that changes its fail counts and backoffs (`rc` and `dfq`
run its `select` on fixed tables and set it back to None). A strategy draws
from the run's uniforms, not its own.

Per-slot work scales with the nodes that can act, not with N.
`Simulation.powered` holds the nodes whose battery affords one
transmission, in index order. EQAT's `select` (so `rc`'s and `dfq`'s) is
one pass over it that finds each contender (a node with a packet, past its
backoff), computes its beacon and draws for it, and returns the nodes whose
draw fell below their beacon. Only `Simulation._set_level` changes a node's
membership. A slot's branches pick its outcome and its move table (the
per-node law, tabulated once in `energy`): `after_tx` or `after_charge` for
a lone selected node, `after_collision` for colliders. The loop writes
batteries in two places, the lone transmitter's branch and the colliders'
loop, and each moves a node by its table: directly when the move leaves the
node on the same side of its transmit cost, else through `_set_level`. So
code may assign `queues` freely but must write `batteries` only through
`_set_level`. A traced run records each slot's end-of-slot batteries, so
consecutive `SlotTrace.batteries` carry every move, colliders' included.
"""

from __future__ import annotations

import numbers
from bisect import insort
from dataclasses import dataclass
from itertools import chain, compress
from typing import Callable

import numpy as np

from .core import NetworkParams
from .energy import energy_profiles, packet_success_prob
from .eqat import TxProbDesign, escalate, tx_prob

# values fetched per refill of a block-fetched stream (uniforms, or arrival
# opportunities of N uniforms each); bounds the memory a `uniforms` stream
# holds, while an `ArrivalTape` keeps every block it has drawn
BLOCK = 1024


@dataclass
class RunMetrics:
    """Aggregate packet accounting for one run. Its fields, in order, are
    the columns of a raw CSV row after the run key; an aggregate row over seeds
    has ``<field>_mean`` of each but slots, and ``<field>_stderr`` of each float.

    Conservation: generated == delivered + dropped + in_queue_final
    (nothing is in flight at the end of a slot; collided and corrupted
    packets stay queued and are retried). Every slot has one outcome, so
    the five outcome counts sum to slots, and successes == delivered.
    """

    slots: int = 0
    generated: int = 0
    delivered: int = 0
    dropped: int = 0  # arrivals refused by a full queue
    in_queue_final: int = 0
    throughput_pps: float = 0.0  # delivered per second simulated; 0.0 for no slots
    loss_rate: float = 0.0  # dropped / generated; 0.0 for none generated
    successes: int = 0  # a lone transmitter's packet delivered
    ber_failures: int = 0  # a lone transmitter's packet corrupted
    collisions: int = 0  # two or more transmitters
    charge_only_slots: int = 0  # one node selected that cannot transmit: it charges
    idle_slots: int = 0  # no node selected
    energy_dead_node_slots: int = 0  # per slot, the nodes below their transmit cost at its start


@dataclass(frozen=True)
class SlotTrace:
    """End-of-slot snapshot. Its fields, in order, are the columns of a trace
    CSV row after the run key. The outcome ``idle`` covers a charge-only slot
    as well as a slot with no node selected; `RunMetrics` counts the two
    apart. A slot's battery moves are the change from the previous slot's
    `batteries` (from ``initial_battery`` before the first), colliders' too."""

    slot: int
    outcome: str  # success | ber_fail | collision | idle
    transmitters: tuple[int, ...]
    batteries: tuple[int, ...]
    queues: tuple[int, ...]


def uniforms(rng: np.random.Generator) -> Callable[[], float]:
    """A function returning the next uniform of `rng` on each call.

    Same values, in the same order, as repeated ``rng.random()``; they are
    fetched BLOCK at a time, the first block on the first call.
    """
    return chain.from_iterable(iter(lambda: rng.random(BLOCK).tolist(), None)).__next__


class ArrivalTape:
    """Each slot's arrivals for one seed and network, drawn once for all its runs.

    Each of a slot's ``arrivals_per_slot`` arrival opportunities draws
    ``rng.random(n_nodes)`` from substream ``[seed, 0]``, and node n has an
    arrival when its uniform is below ``arrival_prob``. A slot's hits are its
    opportunities' hits concatenated in draw order, so a node appears once
    per arrival. The tape draws about BLOCK opportunities at a time, as far
    as its readers have reached, and keeps them all (see the module
    docstring for the memory).
    """

    def __init__(self, params: NetworkParams, seed: int):
        self.key = self.key_of(params, seed)
        _, n_nodes, _, per_slot = self.key
        self.rng = np.random.default_rng([seed, 0])
        self.slots: list[list[int]] = []   # the nodes with an arrival, per slot drawn
        self._block = max(1, BLOCK // per_slot)   # slots per draw
        self._width = per_slot * n_nodes          # uniforms per slot

    @staticmethod
    def key_of(params: NetworkParams, seed: int) -> tuple:
        """What fixes a tape's hits: (seed, n_nodes, arrival_prob, arrivals_per_slot)."""
        return seed, params.n_nodes, params.arrival_prob, params.arrivals_per_slot

    def upto(self, slots: int) -> list[list[int]]:
        """Every slot's hits drawn so far, after drawing at least `slots` of them."""
        n_nodes, prob = self.key[1], self.key[2]
        block, width = self._block, self._width
        while len(self.slots) < slots:
            hits = np.flatnonzero(self.rng.random(block * width) < prob)
            ends = np.searchsorted(hits, np.arange(width, (block + 1) * width, width)).tolist()
            nodes = (hits % n_nodes).tolist()
            self.slots += [nodes[start:end] for start, end in zip([0, *ends], ends)]
        return self.slots


class Simulation:
    """One run of `strategy` on the network `params`, from `seed`.

    It looks up the network's energy profiles (`energy_profiles`) and opens
    one rng substream per random purpose, once, in the one form it is read in:

      * ``[seed, 0]``: arrivals, N uniforms per opportunity, in the
        `ArrivalTape` that owns it, since runs of one seed share it;
      * ``[seed, 1]``, ``[seed, 2]`` and ``[seed, 3]``: the `uniforms`
        `strategy_uniform` (``rs``'s pick, contention draws), `ber_uniform`
        (a lone transmitter's packet-error draw) and `backoff_uniform`.

    A choice among k values scales one uniform u to ``int(u * k)``, as an
    EQAT backoff ``1 + int(u * W)``. Every form fetches blocks, which PCG64
    fills with the values of drawing one at a time; as it reads past the
    last value handed out, a second form of a stream would see other values.
    """

    def __init__(self, params: NetworkParams, strategy: "Strategy", seed: int,
                 trace: bool = False, *, arrivals: ArrivalTape | None = None):
        """`arrivals` is an ``ArrivalTape(params, seed)`` shared with other runs, else
        the run draws its own; a tape of another seed or network raises ValueError."""
        if arrivals is None:
            arrivals = ArrivalTape(params, seed)
        elif arrivals.key != ArrivalTape.key_of(params, seed):
            raise ValueError(f"arrival tape of (seed, n_nodes, arrival_prob, arrivals_per_slot) "
                             f"{arrivals.key}, not {ArrivalTape.key_of(params, seed)}")
        self.params = params
        self.strategy = strategy
        self.arrivals = arrivals
        self.strategy_uniform, self.ber_uniform, self.backoff_uniform = (
            uniforms(np.random.default_rng([seed, k])) for k in (1, 2, 3))
        profiles = energy_profiles(params)
        self.min_tx = [prof.min_tx_level for prof in profiles]
        self.ps = packet_success_prob(params)
        self._after_tx = [prof.after_tx for prof in profiles]
        self._after_charge = [prof.after_charge for prof in profiles]
        self._after_collision = [prof.after_collision for prof in profiles]
        n = params.n_nodes
        self.batteries = [params.initial_battery] * n
        self.queues = [0] * n
        self.powered = [i for i, need in enumerate(self.min_tx) if self.batteries[i] >= need]
        self.metrics = RunMetrics()
        self.traces: list[SlotTrace] | None = [] if trace else None
        self.slot = 0
        if strategy.bind is not None:
            strategy.bind(self)

    def _set_level(self, node: int, after: int):
        """Set a battery to a level of its move tables; the only write that changes `powered`."""
        before = self.batteries[node]
        self.batteries[node] = after
        need = self.min_tx[node]
        if (before >= need) != (after >= need):
            if after >= need:
                insort(self.powered, node)
            else:
                self.powered.remove(node)

    def run(self, slots: int) -> RunMetrics:
        """Play `slots` more slots; returns `metrics`, current through the last one."""
        queues, batteries, min_tx = self.queues, self.batteries, self.min_tx
        powered, n_nodes = self.powered, self.params.n_nodes
        after_tx, after_charge = self._after_tx, self._after_charge
        after_collision = self._after_collision
        ps, ber = self.ps, self.ber_uniform
        cap, set_level, traces = self.params.queue_cap, self._set_level, self.traces
        strategy = self.strategy
        select, on_outcome = strategy.select, strategy.on_outcome
        m = self.metrics
        generated, delivered, dropped = m.generated, m.delivered, m.dropped
        successes, ber_failures, collisions = m.successes, m.ber_failures, m.collisions
        charge_only, idle, dead = m.charge_only_slots, m.idle_slots, m.energy_dead_node_slots
        start = self.slot
        stop = start + max(slots, 0)
        arrivals = self.arrivals.upto(stop)
        generated += sum(map(len, arrivals[start:stop]))
        # the energy-dead count changes only when a move crosses a transmit cost;
        # its slots since the last crossing are added there and when the call ends
        dead_now, since = n_nodes - len(powered), start

        for slot in range(start, stop):
            self.slot = slot   # the slot being played, for the strategy's hooks
            transmitters = select(self)
            if len(transmitters) == 1:
                t = transmitters[0]
                before, need = batteries[t], min_tx[t]
                if before >= need and queues[t] >= 1:
                    if ber() < ps:
                        outcome = "success"
                        successes += 1
                        queues[t] -= 1
                        delivered += 1
                    else:
                        outcome = "ber_fail"
                        ber_failures += 1
                    # downlink charges the node either way, net of transmit cost
                    after = after_tx[t][before]
                else:
                    # a centrally selected node without a packet (or battery)
                    # gets the whole slot as charge
                    outcome = "idle"
                    charge_only += 1
                    after = after_charge[t][before]
                if (after >= need) == (before >= need):
                    batteries[t] = after
                else:
                    set_level(t, after)
                    dead += dead_now * (slot + 1 - since)
                    dead_now, since = n_nodes - len(powered), slot + 1
            elif transmitters:
                outcome = "collision"
                collisions += 1
                for t in transmitters:
                    before, need = batteries[t], min_tx[t]
                    after = after_collision[t][before]
                    if (after >= need) == (before >= need):
                        batteries[t] = after
                    else:
                        set_level(t, after)
                        dead += dead_now * (slot + 1 - since)
                        dead_now, since = n_nodes - len(powered), slot + 1
            else:
                outcome = "idle"
                idle += 1

            if on_outcome is not None:
                on_outcome(self, transmitters, outcome)

            # the slot's arrivals, opportunity by opportunity
            for n in arrivals[slot]:
                if queues[n] >= cap:
                    dropped += 1
                else:
                    queues[n] += 1

            if traces is not None:
                traces.append(SlotTrace(slot, outcome, tuple(transmitters),
                                        tuple(batteries), tuple(queues)))

        self.slot = stop
        dead += dead_now * (stop - since)
        m.generated, m.delivered, m.dropped = generated, delivered, dropped
        m.successes, m.ber_failures, m.collisions = successes, ber_failures, collisions
        m.charge_only_slots, m.idle_slots, m.energy_dead_node_slots = charge_only, idle, dead
        m.slots = stop
        m.in_queue_final = sum(queues)
        m.throughput_pps = delivered / (stop * self.params.slot_len) if stop else 0.0
        m.loss_rate = dropped / generated if generated else 0.0
        return m


# -- strategies ---------------------------------------------------------------


class Strategy:
    """One scheduling policy; a central scheduler returns at most one node."""

    # optional hooks, None until defined: bind(sim), on_outcome(sim, transmitters, outcome)
    bind = on_outcome = None

    def select(self, sim: Simulation) -> list[int]:
        raise NotImplementedError


class FullQueueStrategy(Strategy):
    """Schedules the longest queue; ties to the lowest node index."""

    def select(self, sim):
        # index() finds the first maximal element, i.e. the lowest index
        queues = sim.queues
        return [queues.index(max(queues))]


class RandomSelectionStrategy(Strategy):
    """Schedules uniformly among nodes holding at least one packet."""

    def select(self, sim):
        # queue lengths are non-negative, so the non-zero ones are the backlogged
        queues = sim.queues
        eligible = list(compress(range(len(queues)), queues))
        if not eligible:
            return []
        return [eligible[int(sim.strategy_uniform() * len(eligible))]]


class EhmdpStrategy(Strategy):
    """Scheduler driven by the chooser `run_experiment` builds once per scenario,
    from kernels whose arrivals are `core.arrival_pmf`: `mdp.PolicyChooser` of
    the solved policy, or `mdp.MyopicChooser`, its stand-in above the budget."""

    def __init__(self, chooser: Callable[[list[int], list[int]], int]):
        self.chooser = chooser

    def select(self, sim):
        return [self.chooser(sim.batteries, sim.queues)]


class EqatStrategy(Strategy):
    """Energy-queue aware contention: escalation on failed frames, backoff on collisions.

    Per-run contention state, one entry per node:

      * ``fails``: frames transmitted and failed (collided or corrupted)
        since the node's last success; the node's working probability is
        min(1, (1 + alpha)^fails * f(e, q)), back to the design value on
        a success;
      * ``resume``: the first slot in which the node may contend again. A
        collision in slot t sets it to ``t + 1 + int(u * backoff_window)``,
        so the node sits out a number of slots uniform on 1..backoff_window,
        for one uniform u of the backoff stream per transmitter, in
        transmitter order. It changes only when the node collides, so
        nothing counts down.

    `select` makes one pass over `Simulation.powered`, in index order. A
    contender is a node with a packet whose ``resume`` slot has come; its
    beacon is its working probability, from the live state when the slot
    starts, and it draws one strategy uniform and is nominated when that is
    below its beacon. Every other node advertises exactly 0.0 and draws
    nothing. Each node decides from its own state alone: every nominee
    transmits, and two or more collide.
    """

    def __init__(self, design: TxProbDesign = TxProbDesign.parse("exp:1:0.05"),
                 alpha: float = 0.5, backoff_window: int = 8):
        if not alpha >= 0.0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        # an integer: 1 + int(u * W) is uniform on 1..W only for a whole W
        if isinstance(backoff_window, bool) or not isinstance(backoff_window, numbers.Integral):
            raise ValueError(f"backoff_window must be an integer, got {backoff_window!r}")
        if backoff_window < 1:
            raise ValueError(f"backoff_window must be >= 1, got {backoff_window}")
        self.design = design
        self.alpha = alpha
        self.backoff_window = int(backoff_window)

    def bind(self, sim: Simulation):
        p = sim.params
        self.fails = [0] * p.n_nodes
        self.resume = [0] * p.n_nodes
        # f on the (battery, queue) grid, computed once
        self._p_table = [[self.f(e, q, p) for q in range(p.queue_cap + 1)]
                         for e in range(p.battery_levels + 1)]

    def f(self, battery: int, queue: int, params: NetworkParams) -> float:
        """The design value f(e, q) before escalation."""
        return tx_prob(self.design, battery, queue, params)

    def select(self, sim):
        fails, resume, table, alpha = self.fails, self.resume, self._p_table, self.alpha
        batteries, queues, uniform, slot = sim.batteries, sim.queues, sim.strategy_uniform, sim.slot
        chosen = []
        for i in sim.powered:
            q = queues[i]
            if q >= 1 and resume[i] <= slot:   # a contender
                p = table[batteries[i]][q]
                if fails[i]:   # escalate(p, alpha, 0) is p exactly
                    p = escalate(p, alpha, fails[i])
                if uniform() < p:
                    chosen.append(i)
        return chosen

    def on_outcome(self, sim, transmitters, outcome):
        if outcome == "collision":
            uniform, window, slot = sim.backoff_uniform, self.backoff_window, sim.slot
            for t in transmitters:
                self.fails[t] += 1
                self.resume[t] = slot + 1 + int(uniform() * window)
        elif outcome == "success":
            self.fails[transmitters[0]] = 0
        elif outcome == "ber_fail":
            # a corrupted frame is still a failed frame; no backoff, the medium was won
            self.fails[transmitters[0]] += 1

    # never called: only the benchmark's tracer wraps a hook of this name (ROADMAP item 7)
    end_of_slot = None


class FixedTableStrategy(EqatStrategy):
    """The EQAT loop on a fixed table `f`: no escalation or backoff."""

    on_outcome = None   # nothing fails or backs off

    def __init__(self, f: Callable[[int, int, NetworkParams], float]):
        self.f = f   # in place of the design's values
        self.alpha = 0.0


def random_contention(contention_prob: float = 0.75) -> FixedTableStrategy:
    """`rc`: each backlogged node transmits with a fixed contention probability."""
    if not 0.0 <= contention_prob <= 1.0:
        raise ValueError(f"contention_prob must be in [0, 1], got {contention_prob}")
    return FixedTableStrategy(lambda e, q, p: contention_prob if q >= 1 else 0.0)


def decentralized_full_queue() -> FixedTableStrategy:
    """`dfq`: every node whose queue is full (and can afford it) transmits."""
    # a uniform is below 1, so every contender with a full queue transmits
    return FixedTableStrategy(lambda e, q, p: 1.0 if q == p.queue_cap else 0.0)


# every strategy's constructor by its name, in the order a grid runs them by default
STRATEGIES: dict[str, Callable[..., Strategy]] = {
    "ehmdp": EhmdpStrategy, "fq": FullQueueStrategy, "rs": RandomSelectionStrategy,
    "eqat": EqatStrategy, "dfq": decentralized_full_queue, "rc": random_contention,
}


def make_strategy(name: str, **kw) -> Strategy:
    """Fresh strategy instance for one run (contention state is per-run).

    `kw` are the constructor's overrides; an out-of-range value raises
    ValueError and an unknown keyword TypeError.
    """
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}; expected one of {tuple(STRATEGIES)}")
    return STRATEGIES[name](**kw)


def simulate_run(params: NetworkParams, strategy_name: str, slots: int, seed: int,
                 trace: bool = False, *, arrivals: ArrivalTape | None = None,
                 **strategy_kw) -> tuple[RunMetrics, list[SlotTrace] | None]:
    """One run of a fresh strategy; `arrivals` as for `Simulation`."""
    sim = Simulation(params, make_strategy(strategy_name, **strategy_kw), seed, trace,
                     arrivals=arrivals)
    return sim.run(slots), sim.traces
