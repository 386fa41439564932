"""Slotted Monte-Carlo engine comparing central scheduling with contention.

Slot order of events: the strategy picks the transmitter(s); a lone
transmitter gets a packet-error draw and the downlink charge, two or more
collide (losing transmit energy, no charge); the strategy is told the
outcome (EQAT updates its fail counts and draws backoffs); then arrivals
are applied, dropping on full queues; finally the strategy closes the slot
(EQAT counts down its backoffs and computes the next beacon). A run is
strictly sequential and deterministic given its seed: arrivals, strategy
choices, error draws, and backoff draws each consume their own substream,
so runs that differ only in strategy see identical arrival processes.

Per-slot work scales with the nodes that can act, not with N. Batteries
change only through `Simulation._apply_levels`, which keeps
`Simulation.powered`, the nodes whose battery affords one transmission, in
index order; `transmit_ready` filters that list by the live queues, so
code may assign `queues` freely but must not write `batteries` directly.
`EqatStrategy` caches its contenders and their beacon probabilities at the
end of each slot (see its docstring).

Random draws are fetched BLOCK at a time and handed out one by one in the
order a per-slot draw would have consumed them, so the numbers are those of
drawing each value when it is needed (PCG64 gives the same uniforms whether
drawn singly or in an array). Which form each substream is consumed in is
listed on `Streams`.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import chain, compress
from typing import Callable

import numpy as np

from .core import NetworkParams
from .energy import energy_profiles, packet_success_prob
from .eqat import TxProbDesign, escalate, tx_prob
from .mdp import arrival_pmf, myopic_chooser, policy_chooser

# draws fetched per refill of a block-fetched stream (per arrival
# opportunity for the arrival stream); bounds the memory a stream holds
BLOCK = 1024


@dataclass
class RunMetrics:
    """Aggregate packet accounting for one run.

    Conservation: generated == delivered + dropped_overflow + in_queue_final
    (nothing is in flight at the end of a slot; collided and corrupted
    packets stay queued and are retried).
    """

    generated: int = 0
    delivered: int = 0
    dropped_overflow: int = 0
    in_queue_final: int = 0
    slots: int = 0
    duration: float = 0.0  # seconds simulated

    @property
    def throughput_pps(self) -> float:
        return self.delivered / self.duration if self.duration > 0 else 0.0

    @property
    def loss_rate(self) -> float:
        return self.dropped_overflow / self.generated if self.generated else 0.0


@dataclass(frozen=True)
class SlotTrace:
    """End-of-slot snapshot; energy_levels is the battery change applied to
    the charged node (net of transmit cost, after clamping)."""

    slot: int
    batteries: tuple[int, ...]
    queues: tuple[int, ...]
    transmitters: tuple[int, ...]
    outcome: str  # success | ber_fail | collision | idle
    energy_levels: int


class Streams:
    """Named rng substreams so different random purposes never interleave.

    Each substream is consumed in exactly one form during a run:

      * ``arrival``: `arrival_hits`, BLOCK opportunities of N uniforms each;
      * ``ber``: `uniforms`, BLOCK scalar uniforms at a time;
      * ``strategy``: `uniforms` for ``rc`` and ``eqat``; direct
        ``integers(len(eligible))`` calls for ``rs``;
      * ``backoff``: direct ``integers(1, W + 1)`` calls.

    Bounded ``integers`` consumes a data-dependent number of raw draws, so
    those streams are not fetched ahead. A block form reads up to BLOCK
    draws past the last value it handed out, so no stream may be consumed
    in two forms: a direct call after a block fetch would see different
    values from the ones a per-slot draw would have seen.
    """

    def __init__(self, seed: int):
        self.arrival = np.random.default_rng([seed, 0])
        self.strategy = np.random.default_rng([seed, 1])
        self.ber = np.random.default_rng([seed, 2])
        self.backoff = np.random.default_rng([seed, 3])


def uniforms(rng: np.random.Generator) -> Callable[[], float]:
    """A function returning the next uniform of `rng` on each call.

    Same values, in the same order, as repeated ``rng.random()``; they are
    fetched BLOCK at a time, the first block on the first call.
    """
    return chain.from_iterable(iter(lambda: rng.random(BLOCK).tolist(), None)).__next__


def arrival_hits(rng: np.random.Generator, n_nodes: int,
                 prob: float) -> Callable[[], list[int]]:
    """A function returning, per arrival opportunity, the nodes with an arrival.

    Node n has an arrival when its uniform is below `prob`, with the
    uniforms of ``rng.random(n_nodes)`` per opportunity; BLOCK
    opportunities are drawn at a time.
    """
    def block() -> list[list[int]]:
        rows, nodes = np.nonzero(rng.random((BLOCK, n_nodes)) < prob)
        ends = np.cumsum(np.bincount(rows, minlength=BLOCK)).tolist()
        nodes = nodes.tolist()
        return [nodes[start:end] for start, end in zip([0, *ends], ends)]

    return chain.from_iterable(iter(block, None)).__next__


class Simulation:
    def __init__(self, params: NetworkParams, strategy: "Strategy", seed: int,
                 trace: bool = False):
        self.params = params
        self.strategy = strategy
        self.rng = Streams(seed)
        self.profiles = energy_profiles(params)
        self.min_tx = [prof.min_tx_level for prof in self.profiles]
        self.ps = packet_success_prob(params)
        self._ber = uniforms(self.rng.ber)
        self._arrivals = arrival_hits(self.rng.arrival, params.n_nodes, params.arrival_prob)
        self._arrivals_per_slot = params.arrivals_per_slot
        n = params.n_nodes
        self.batteries = [params.initial_battery] * n
        self.queues = [0] * n
        self.powered = [i for i, need in enumerate(self.min_tx) if self.batteries[i] >= need]
        self.metrics = RunMetrics()
        self.traces: list[SlotTrace] | None = [] if trace else None
        self.slot = 0
        strategy.bind(self)

    def can_transmit(self, node: int) -> bool:
        return self.queues[node] >= 1 and self.batteries[node] >= self.min_tx[node]

    def transmit_ready(self) -> list[int]:
        """Every node that `can_transmit`, in index order."""
        queues = self.queues
        return [i for i in self.powered if queues[i] >= 1]

    def _apply_levels(self, node: int, delta: int) -> int:
        """Add `delta` levels to a battery, clamped; the only battery write."""
        before = self.batteries[node]
        after = before + delta
        # comparisons, not max/min: this runs once per transmitter per slot
        if after > self.params.battery_levels:
            after = self.params.battery_levels
        elif after < 0:
            after = 0
        self.batteries[node] = after
        need = self.min_tx[node]
        if (before >= need) != (after >= need):
            if after >= need:
                insort(self.powered, node)
            else:
                self.powered.remove(node)
        return after - before

    def step(self):
        transmitters = self.strategy.select(self)
        outcome = "idle"
        energy = 0

        if len(transmitters) == 1:
            (t,) = transmitters
            if self.can_transmit(t):
                if self._ber() < self.ps:
                    outcome = "success"
                    self.queues[t] -= 1
                    self.metrics.delivered += 1
                else:
                    outcome = "ber_fail"
                # downlink charges the node either way, net of transmit cost
                energy = self._apply_levels(t, self.profiles[t].delta_levels)
            else:
                # a centrally selected node without a packet (or battery)
                # gets the whole slot as charge
                energy = self._apply_levels(t, self.profiles[t].harvest_only_levels)
        elif len(transmitters) >= 2:
            outcome = "collision"
            for t in transmitters:
                self._apply_levels(t, -self.min_tx[t])

        self.strategy.on_outcome(self, transmitters, outcome)

        queues, cap, m = self.queues, self.params.queue_cap, self.metrics
        for _ in range(self._arrivals_per_slot):
            hits = self._arrivals()
            m.generated += len(hits)
            for n in hits:
                if queues[n] >= cap:
                    m.dropped_overflow += 1
                else:
                    queues[n] += 1

        self.strategy.end_of_slot(self)

        if self.traces is not None:
            self.traces.append(SlotTrace(
                slot=self.slot,
                batteries=tuple(self.batteries),
                queues=tuple(self.queues),
                transmitters=tuple(transmitters),
                outcome=outcome,
                energy_levels=energy,
            ))
        self.slot += 1

    def run(self, slots: int) -> RunMetrics:
        for _ in range(slots):
            self.step()
        m = self.metrics
        m.slots = self.slot
        m.duration = self.slot * self.params.slot_len
        m.in_queue_final = sum(self.queues)
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

    def select(self, sim):
        # queue lengths are non-negative, so the non-zero ones are the backlogged
        queues = sim.queues
        eligible = list(compress(range(len(queues)), queues))
        if not eligible:
            return []
        return [eligible[int(sim.rng.strategy.integers(len(eligible)))]]


class EhmdpStrategy(Strategy):
    """Scheduler driven by the solved policy, or its myopic stand-in."""

    name = "ehmdp"

    def __init__(self, vi_result=None):
        self.exact = vi_result is not None
        if self.exact:
            self._choose = policy_chooser(vi_result)

    def bind(self, sim: Simulation):
        # the myopic scores come from the run's own energy profiles
        if not self.exact:
            self._choose = myopic_chooser(sim.params, sim.profiles)

    def select(self, sim):
        return [self._choose(sim.batteries, sim.queues)]


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
        drawn uniformly from 1..backoff_window on the backoff stream, one
        draw per transmitter in transmitter order;
      * ``waiting``: the nodes with ``backoff`` > 0, the only ones
        `end_of_slot` counts down.

    Beacon probabilities are the working values computed at the end of the
    previous slot (one slot stale), zero for nodes that will still be
    backing off. A nominee is vetoed when the mass of its intended move,
    ps * P(no arrival over the slot) * prod(1 - competitors' beacons), falls
    below ``threshold``; P(no arrival) is `mdp.arrival_pmf`'s first term.

    The work of a slot is event-driven. `bind` and `end_of_slot` compute the
    contenders (`transmit_ready` nodes not backing off, in index order) and
    their beacon values once; `select` reuses both, since nothing changes
    between `end_of_slot` and the next `select`. Every other node advertises
    exactly 0.0, so the competitor products run over the contenders alone
    and equal the products over all N factors bit for bit.
    """

    name = "eqat"

    def __init__(self, design: TxProbDesign = TxProbDesign.parse("exp:1:0.05"),
                 alpha: float = 0.5, threshold: float = 0.0, backoff_window: int = 8):
        if not alpha >= 0.0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        if not backoff_window >= 1:
            raise ValueError(f"backoff_window must be >= 1, got {backoff_window}")
        self.design = design
        self.alpha = alpha
        self.threshold = threshold
        self.backoff_window = backoff_window

    def bind(self, sim: Simulation):
        p = sim.params
        self._uniform = uniforms(sim.rng.strategy)
        self._ps_clean = sim.ps * float(arrival_pmf(p)[0])
        self.fails = [0] * p.n_nodes
        self.backoff = [0] * p.n_nodes
        self.waiting: list[int] = []
        # design values on the (battery, queue) grid, computed once
        self._p_table = [
            [tx_prob(self.design, e, q, p) for q in range(p.queue_cap + 1)]
            for e in range(p.battery_levels + 1)
        ]
        self._refresh(sim)

    def _refresh(self, sim: Simulation):
        # a node that will not contend (backoff, no packet, or battery below
        # one transmission) honestly advertises zero and is left out
        fails, backoff, table = self.fails, self.backoff, self._p_table
        batteries, queues = sim.batteries, sim.queues
        self._contenders = [i for i in sim.transmit_ready() if backoff[i] <= 0]
        self._probs = [escalate(table[batteries[i]][queues[i]], self.alpha, fails[i])
                       for i in self._contenders]

    def select(self, sim):
        contenders, probs, uniform = self._contenders, self._probs, self._uniform
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
            rng, window = sim.rng.backoff, self.backoff_window
            for t in transmitters:
                self.fails[t] += 1
                self.backoff[t] = int(rng.integers(1, window + 1))
            self.waiting.extend(transmitters)
        elif outcome == "success":
            self.fails[transmitters[0]] = 0
        elif outcome == "ber_fail":
            # a corrupted frame is still a failed frame; no backoff, the medium was won
            self.fails[transmitters[0]] += 1

    def end_of_slot(self, sim):
        backoff = self.backoff
        for i in self.waiting:
            backoff[i] -= 1
        self.waiting = [i for i in self.waiting if backoff[i] > 0]
        self._refresh(sim)


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
    **strategy_kw,
) -> tuple[RunMetrics, list[SlotTrace] | None]:
    strategy = make_strategy(strategy_name, **strategy_kw)
    sim = Simulation(params, strategy, seed=seed, trace=trace)
    metrics = sim.run(slots)
    return metrics, sim.traces
