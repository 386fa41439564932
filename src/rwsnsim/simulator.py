"""Slotted Monte-Carlo engine comparing central scheduling with contention.

Slot order of events: the strategy picks the transmitter(s); a lone
transmitter gets a packet-error draw and the downlink charge, two or more
collide (losing transmit energy, no charge); the strategy is told the
outcome (EQAT updates its fail counts and draws backoffs); then arrivals
are applied, dropping on full queues; finally the strategy closes the slot
(EQAT counts down its backoffs). A run is strictly sequential and
deterministic given its seed: arrivals, strategy choices, error draws, and
backoff draws each consume their own substream, so runs that differ only
in strategy see identical arrival processes (common random numbers).

Those arrivals are drawn once per seed and network. An `ArrivalTape` owns
the arrival substream and keeps each slot's hits; every run of that seed
reads the same tape (`run_experiment` gives one to all the runs of a
(scenario, seed)), and a run given none draws a private one. The tape keeps
every slot it has drawn until its last reader is gone: about 90 B a slot at
N=10 and 185 B at N=50 at the default arrival probability of 0.3, so 0.37 MB
for 2,000 slots at N=50 and 18.5 MB for 100,000, where a stream drawn per
run would hold one block.

One slot loop. `Simulation.run(slots)` is the only code that plays a slot;
`step()` is ``run(1)``. At the start of each call the loop binds to locals
what stays fixed from slot to slot: the queue, battery and powered lists,
the per-node transmit costs and battery-move tables, the draw functions,
the arrival tape's slots (drawn through the call's last slot, and read by
slot index), the strategy's bound `select` and hooks, and the trace list.
It counts packets, slot outcomes and energy-dead node-slots in locals and,
when the call ends, writes them to `metrics` together with `slots`,
`in_queue_final` and the two rates, so `metrics` is current after every
call (`slot` is kept current during the call, for the strategy). Binding
per call, not per run, lets a caller replace `queues` or `traces` between
calls, and lets a `select` patched onto the strategy's class after
construction (the benchmark's tracer does this) take effect.

Hook contract. A strategy implements `select`; it may override `bind`
(called once, from the constructor), `on_outcome` and `end_of_slot`. The
loop calls the last two only when the strategy's class overrides
`Strategy`'s no-op, decided once per call; of the shipped strategies only
`EqatStrategy` does.

Per-slot work scales with the nodes that can act, not with N.
`Simulation.powered` holds the nodes whose battery affords one
transmission, in index order, and `transmit_ready` filters it by the live
queues. Only `Simulation._set_level` changes a node's membership. A slot's
branches pick its outcome and its move table (the per-node law, tabulated
once in `energy`): `after_tx` or `after_charge` for a lone selected node,
`after_collision` for colliders. One block, the loop's only battery write,
then moves each transmitter by it: directly when the move leaves the node
on the same side of its transmit cost, else through `_set_level`. So code
may assign `queues` freely but must write `batteries` only through
`_set_level`.

Random draws are fetched in blocks and handed out one by one in the order
a per-slot draw would have consumed them, so the numbers are those of
drawing each value when it is needed. Which form each substream is
consumed in is listed on `Streams`.
"""

from __future__ import annotations

import numbers
from bisect import insort
from dataclasses import dataclass
from itertools import chain, compress
from typing import Callable

import numpy as np

from .core import NetworkParams, arrival_pmf
from .energy import NodeEnergyProfile, energy_profiles, packet_success_prob
from .eqat import TxProbDesign, escalate, tx_prob

_LOOKED_UP_HERE = (energy_profiles,)   # as `simulator.energy_profiles`, by run_experiment

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
    """End-of-slot snapshot; energy_levels is the battery change applied to
    the charged node (net of transmit cost, after clamping). Its fields, in
    order, are the columns of a trace CSV row after the run key. The
    outcome ``idle`` covers a charge-only slot as well as a slot with no
    node selected; `RunMetrics` counts the two apart."""

    slot: int
    outcome: str  # success | ber_fail | collision | idle
    transmitters: tuple[int, ...]
    energy_levels: int
    batteries: tuple[int, ...]
    queues: tuple[int, ...]


class Streams:
    """A run's own rng substreams, so different random purposes never interleave.

    Substream ``[seed, 0]`` is the arrivals'; the run's `ArrivalTape` owns
    it, since runs of one seed share it. Each substream is consumed in
    exactly one form, and every form fetches its draws in blocks:

      * ``[seed, 0]``: `ArrivalTape`, N uniforms per arrival opportunity;
      * ``ber``, ``strategy`` and ``backoff``: `uniforms`. A choice among k
        values scales one uniform u to ``int(u * k)``: ``rs``'s index into
        the backlogged nodes, and an EQAT backoff ``1 + int(u * W)``.

    A block form gives the values of drawing one at a time, since PCG64
    gives the same uniforms whether drawn singly or in an array. It reads
    past the last value it handed out, so no stream may be consumed in two
    forms: a second form would see other values than a per-slot draw would
    have seen.
    """

    def __init__(self, seed: int):
        self.strategy = np.random.default_rng([seed, 1])
        self.ber = np.random.default_rng([seed, 2])
        self.backoff = np.random.default_rng([seed, 3])


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
    def __init__(self, params: NetworkParams, strategy: "Strategy", seed: int,
                 trace: bool = False, *, profiles: list[NodeEnergyProfile],
                 arrivals: ArrivalTape | None = None):
        """`profiles` are the network's energy profiles, `energy_profiles(params)`.
        `arrivals` is ``ArrivalTape(params, seed)`` shared with other runs of
        `seed` on this network; without it the run draws its own. A tape of
        another seed or network raises ValueError."""
        if arrivals is None:
            arrivals = ArrivalTape(params, seed)
        elif arrivals.key != ArrivalTape.key_of(params, seed):
            raise ValueError(f"arrival tape of (seed, n_nodes, arrival_prob, arrivals_per_slot) "
                             f"{arrivals.key}, not {ArrivalTape.key_of(params, seed)}")
        self.params = params
        self.strategy = strategy
        self.rng = Streams(seed)
        self.arrivals = arrivals
        self.profiles = profiles
        self.min_tx = [prof.min_tx_level for prof in profiles]
        self.ps = packet_success_prob(params)
        self._ber = uniforms(self.rng.ber)
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
        strategy.bind(self)

    def transmit_ready(self) -> list[int]:
        """Every node with a packet and the battery for one transmission, in index order."""
        queues = self.queues
        return [i for i in self.powered if queues[i] >= 1]

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

    def step(self):
        """Play one slot."""
        self.run(1)

    def run(self, slots: int) -> RunMetrics:
        """Play `slots` more slots; returns `metrics`, current through the last one."""
        queues, batteries, min_tx = self.queues, self.batteries, self.min_tx
        powered, n_nodes = self.powered, self.params.n_nodes
        after_tx, after_charge = self._after_tx, self._after_charge
        after_collision = self._after_collision
        ps, ber = self.ps, self._ber
        cap, set_level, traces = self.params.queue_cap, self._set_level, self.traces
        strategy = self.strategy
        select = strategy.select
        cls = type(strategy)
        on_outcome = strategy.on_outcome if cls.on_outcome is not Strategy.on_outcome else None
        end_of_slot = strategy.end_of_slot if cls.end_of_slot is not Strategy.end_of_slot else None
        m = self.metrics
        generated, delivered, dropped = m.generated, m.delivered, m.dropped
        successes, ber_failures, collisions = m.successes, m.ber_failures, m.collisions
        charge_only, idle, dead = m.charge_only_slots, m.idle_slots, m.energy_dead_node_slots
        start = self.slot
        stop = start + max(slots, 0)
        arrivals = self.arrivals.upto(stop)
        dead_now = n_nodes - len(powered)   # changes only when a move crosses a transmit cost

        for slot in range(start, stop):
            self.slot = slot   # the slot being played, for the strategy's hooks
            dead += dead_now
            transmitters = select(self)
            if len(transmitters) == 1:
                t = transmitters[0]
                if batteries[t] >= min_tx[t] and queues[t] >= 1:
                    if ber() < ps:
                        outcome = "success"
                        successes += 1
                        queues[t] -= 1
                        delivered += 1
                    else:
                        outcome = "ber_fail"
                        ber_failures += 1
                    # downlink charges the node either way, net of transmit cost
                    moves = after_tx
                else:
                    # a centrally selected node without a packet (or battery)
                    # gets the whole slot as charge
                    outcome = "idle"
                    charge_only += 1
                    moves = after_charge
            elif transmitters:
                outcome = "collision"
                collisions += 1
                moves = after_collision
            else:
                outcome = "idle"
                idle += 1
            for t in transmitters:   # the one battery write, by the branch's table
                before, need = batteries[t], min_tx[t]
                after = moves[t][before]
                if (after >= need) == (before >= need):
                    batteries[t] = after
                else:
                    set_level(t, after)
                    dead_now = n_nodes - len(powered)

            if on_outcome is not None:
                on_outcome(self, transmitters, outcome)

            # the slot's arrivals, opportunity by opportunity
            hits = arrivals[slot]
            generated += len(hits)
            for n in hits:
                if queues[n] >= cap:
                    dropped += 1
                else:
                    queues[n] += 1

            if end_of_slot is not None:
                end_of_slot(self)

            if traces is not None:
                # a lone transmitter's move is the one charged; a collision charges none
                energy = after - before if len(transmitters) == 1 else 0
                traces.append(SlotTrace(slot, outcome, tuple(transmitters), energy,
                                        tuple(batteries), tuple(queues)))

        self.slot = stop
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

    name: str = "?"

    def bind(self, sim: Simulation):
        pass

    def select(self, sim: Simulation) -> list[int]:
        raise NotImplementedError

    def on_outcome(self, sim: Simulation, transmitters: list[int], outcome: str):
        pass

    def end_of_slot(self, sim: Simulation):
        pass


class FullQueueStrategy(Strategy):
    """Schedules the longest queue; ties to the lowest node index."""

    name = "fq"

    def select(self, sim):
        # index() finds the first maximal element, i.e. the lowest index
        queues = sim.queues
        return [queues.index(max(queues))]


class RandomSelectionStrategy(Strategy):
    """Schedules uniformly among nodes holding at least one packet."""

    name = "rs"

    def bind(self, sim: Simulation):
        self._uniform = uniforms(sim.rng.strategy)

    def select(self, sim):
        # queue lengths are non-negative, so the non-zero ones are the backlogged
        queues = sim.queues
        eligible = list(compress(range(len(queues)), queues))
        if not eligible:
            return []
        return [eligible[int(self._uniform() * len(eligible))]]


class EhmdpStrategy(Strategy):
    """Scheduler driven by the chooser `run_experiment` builds once per scenario,
    from kernels whose arrivals are `core.arrival_pmf`: `mdp.PolicyChooser` of
    the solved policy, or `mdp.MyopicChooser`, its stand-in above the budget."""

    name = "ehmdp"

    def __init__(self, chooser: Callable[[list[int], list[int]], int]):
        self.chooser = chooser

    def select(self, sim):
        return [self.chooser(sim.batteries, sim.queues)]


class DecentralizedFullQueueStrategy(Strategy):
    """Every node whose queue is full (and can afford it) transmits."""

    name = "dfq"

    def select(self, sim):
        # queue_cap >= 1, so a powered node with a full queue can transmit
        cap, queues = sim.params.queue_cap, sim.queues
        return [i for i in sim.powered if queues[i] >= cap]


class RandomContentionStrategy(Strategy):
    """Each backlogged node transmits with a fixed contention probability."""

    name = "rc"

    def __init__(self, contention_prob: float = 0.75):
        if not 0.0 <= contention_prob <= 1.0:
            raise ValueError(f"contention_prob must be in [0, 1], got {contention_prob}")
        self.contention_prob = contention_prob

    def bind(self, sim: Simulation):
        self._uniform = uniforms(sim.rng.strategy)

    def select(self, sim):
        uniform, p = self._uniform, self.contention_prob
        return [i for i in sim.transmit_ready() if uniform() < p]


class EqatStrategy(Strategy):
    """Energy-queue aware contention with threshold gate and backoff.

    Per-run contention state, one entry per node:

      * ``fails``: frames transmitted and failed (collided or corrupted)
        since the node's last success; the node's working probability is
        min(1, (1 + alpha)^fails * f(e, q)), back to the design value on
        a success. A threshold veto transmits nothing, so it leaves
        ``fails`` alone; escalating on vetoes feeds back into everyone
        else's risk estimate and locks the whole network silent;
      * ``backoff``: slots the node still sits out after a collision,
        uniform on 1..backoff_window: ``1 + int(u * backoff_window)`` for
        one uniform u of the backoff stream per transmitter, in transmitter
        order;
      * ``waiting``: the nodes with ``backoff`` > 0, the only ones
        `end_of_slot` counts down.

    The contenders are the `transmit_ready` nodes not backing off, in index
    order, and their beacons are their working probabilities, both read off
    the live state when the slot starts (`beacons`). Every other node
    advertises exactly 0.0, so the competitor products run over the
    contenders alone and equal the products over all N factors bit for bit.
    A nominee is vetoed when the mass of its intended move, ps * P(no
    arrival over the slot) * prod(1 - competitors' beacons), falls below
    ``threshold``; P(no arrival) is `core.arrival_pmf`'s first term.
    """

    name = "eqat"

    def __init__(self, design: TxProbDesign = TxProbDesign.parse("exp:1:0.05"),
                 alpha: float = 0.5, threshold: float = 0.0, backoff_window: int = 8):
        if not alpha >= 0.0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        # an integer: 1 + int(u * W) is uniform on 1..W only for a whole W
        if isinstance(backoff_window, bool) or not isinstance(backoff_window, numbers.Integral):
            raise ValueError(f"backoff_window must be an integer, got {backoff_window!r}")
        if backoff_window < 1:
            raise ValueError(f"backoff_window must be >= 1, got {backoff_window}")
        self.design = design
        self.alpha = alpha
        self.threshold = threshold
        self.backoff_window = int(backoff_window)

    def bind(self, sim: Simulation):
        p = sim.params
        self._uniform = uniforms(sim.rng.strategy)
        self._backoff_uniform = uniforms(sim.rng.backoff)
        self._ps_clean = sim.ps * float(arrival_pmf(p)[0])
        self.fails = [0] * p.n_nodes
        self.backoff = [0] * p.n_nodes
        self.waiting: list[int] = []
        # design values on the (battery, queue) grid, computed once
        self._p_table = [
            [tx_prob(self.design, e, q, p) for q in range(p.queue_cap + 1)]
            for e in range(p.battery_levels + 1)
        ]

    def beacons(self, sim: Simulation) -> tuple[list[int], list[float]]:
        """The contenders, in index order, and their beacon values, from the live state."""
        # a node that will not contend (backoff, no packet, or battery below
        # one transmission) honestly advertises zero and is left out;
        # escalate(p, alpha, 0) is p exactly, so a node without fails skips it
        fails, backoff, table, alpha = self.fails, self.backoff, self._p_table, self.alpha
        batteries, queues = sim.batteries, sim.queues
        contenders = []
        probs = []
        for i in sim.powered:
            q = queues[i]
            if q >= 1 and backoff[i] <= 0:
                contenders.append(i)
                p = table[batteries[i]][q]
                probs.append(escalate(p, alpha, fails[i]) if fails[i] else p)
        return contenders, probs

    def select(self, sim):
        contenders, probs = self.beacons(sim)
        uniform = self._uniform
        # one uniform per contender, in index order
        nominees = [k for k, p in enumerate(probs) if uniform() < p]
        if not nominees or self.threshold <= 0.0:
            # competitor products are >= 0, so no threshold <= 0 vetoes
            return [contenders[k] for k in nominees]
        # prefix/suffix products of (1 - beacon) over the contenders
        n = len(probs)
        pre = [1.0] * (n + 1)
        for k in range(n):
            pre[k + 1] = pre[k] * (1.0 - probs[k])
        suf = [1.0] * (n + 1)
        for k in range(n - 1, -1, -1):
            suf[k] = suf[k + 1] * (1.0 - probs[k])
        return [contenders[k] for k in nominees
                if self._ps_clean * pre[k] * suf[k + 1] >= self.threshold]

    def on_outcome(self, sim, transmitters, outcome):
        if outcome == "collision":
            uniform, window = self._backoff_uniform, self.backoff_window
            for t in transmitters:
                self.fails[t] += 1
                self.backoff[t] = 1 + int(uniform() * window)
            self.waiting.extend(transmitters)
        elif outcome == "success":
            self.fails[transmitters[0]] = 0
        elif outcome == "ber_fail":
            # a corrupted frame is still a failed frame; no backoff, the medium was won
            self.fails[transmitters[0]] += 1

    def end_of_slot(self, sim):
        if not self.waiting:  # the common case: nobody backs off
            return
        backoff = self.backoff
        for i in self.waiting:
            backoff[i] -= 1
        self.waiting = [i for i in self.waiting if backoff[i] > 0]


# every strategy by its name, in the order a grid runs them by default
STRATEGIES: dict[str, type[Strategy]] = {cls.name: cls for cls in (
    EhmdpStrategy, FullQueueStrategy, RandomSelectionStrategy, EqatStrategy,
    DecentralizedFullQueueStrategy, RandomContentionStrategy,
)}


def make_strategy(name: str, **kw) -> Strategy:
    """Fresh strategy instance for one run (contention state is per-run).

    `kw` are the constructor's overrides; an out-of-range value raises
    ValueError and an unknown keyword TypeError.
    """
    cls = STRATEGIES.get(name.lower())
    if cls is None:
        raise ValueError(f"unknown strategy {name!r}; expected one of {tuple(STRATEGIES)}")
    return cls(**kw)


def simulate_run(
    params: NetworkParams,
    strategy_name: str,
    slots: int,
    seed: int,
    trace: bool = False,
    *,
    profiles: list[NodeEnergyProfile],
    arrivals: ArrivalTape | None = None,
    **strategy_kw,
) -> tuple[RunMetrics, list[SlotTrace] | None]:
    """One run of a fresh strategy; `profiles` and `arrivals` as for `Simulation`."""
    strategy = make_strategy(strategy_name, **strategy_kw)
    sim = Simulation(params, strategy, seed=seed, trace=trace, profiles=profiles,
                     arrivals=arrivals)
    metrics = sim.run(slots)
    return metrics, sim.traces
