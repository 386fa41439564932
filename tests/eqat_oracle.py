"""Per-node reference of the EQAT contention loop, kept as a test oracle.

`rwsnsim.simulator.EqatStrategy` runs the contention loop for all nodes at
once: per-run `fails`/`resume` lists (a backoff kept as the slot it ends),
one pass a slot that finds each contender, computes its beacon and draws
for it, competitor products over the contenders only. This module writes
the same loop the slow, direct way, one node at a time, so the strategy can
be checked against it:

  * `EqatController` holds one node's fail counter and backoff clock, a
    countdown ticked every slot, and applies the events that change them;
    `TestIncrementalBookkeeping` and `TestEqatIntegration` compare the
    strategy's lists with a shadow set of controllers slot by slot, a
    ``resume`` slot r standing for the countdown ``max(0, r - slot)``;
  * `transmit_ready` lists the nodes with a packet and the battery to send
    it, read off `Simulation.powered`;
  * `eqat_decide` is one node's decision in one slot (its nomination draw),
    and `advertised` every node's beacon, from the controllers and the live state;
    `TestEqatIntegration` checks `EqatStrategy.select` against them every
    slot;
  * `collision_prob` and `collided_transition` are the per-node collision
    law: the chance some competitor transmits, and the transition law of a
    contending node facing competitors at given probabilities. They check
    that this law closes (rows sum to one), collapses to the scheduled
    node's law when the competitors are silent, and matches the simulator's
    frequencies (`TestCollidedNodeLawFrequencies`);
  * `FullQueueContention` and `FixedProbContention` are `dfq` and `rc`
    written as their own strategies, before they became fixed tables of the
    loop; `TestContentionPresets` checks the presets against them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from joint_oracle import Dist, NodeState, can_transmit, node_transition
from rwsnsim.core import NetworkParams
from rwsnsim.energy import NodeEnergyProfile, node_energy_profile
from rwsnsim.eqat import TxProbDesign, escalate, tx_prob
from rwsnsim.simulator import Strategy


def collision_prob(k: int, probs: list[float]) -> float:
    """Chance at least one competitor of node k transmits: 1 - prod(1 - p_n)."""
    out = 1.0
    for n, p in enumerate(probs):
        if n != k:
            out *= 1.0 - p
    return 1.0 - out


def collided_transition(
    s: NodeState,
    params: NetworkParams,
    node: int,
    p_others: list[float],
    profile: NodeEnergyProfile | None = None,
) -> Dist:
    """Transition law of a contending node facing competitors at probs p_others.

    When no competitor transmits, the node moves by the scheduled node's
    law. When one does, the frames collide: nothing is delivered, so the
    queue moves by arrivals only, and the battery loses one transmission's
    cost, as in `Simulation.run`. With silent competitors this collapses
    to the scheduled-node law.
    """
    if profile is None:
        profile = node_energy_profile(params, node)
    scheduled, _ = node_transition(s, params, profile, selected=True)
    if not can_transmit(s, profile):
        return scheduled
    arrivals_only, _ = node_transition(s, params, profile, selected=False)

    clear = 1.0
    for p in p_others:
        clear *= 1.0 - p
    e_dn = max(0, s.battery - profile.min_tx_level)
    out: dict[NodeState, float] = {}
    cases = [(ns, pr * clear) for ns, pr in scheduled] + [
        (NodeState(e_dn, ns.queue), pr * (1.0 - clear)) for ns, pr in arrivals_only]
    for state, mass in cases:
        if mass > 0.0:
            out[state] = out.get(state, 0.0) + mass
    return sorted(out.items())


class Decision(enum.Enum):
    TRANSMIT = "transmit"
    IDLE = "idle"       # did not nominate, backing off, or nothing to send


@dataclass
class EqatController:
    """One node's contention state: escalation counter and backoff clock.

    The working probability is min(1, (1 + alpha)^fails * f(e, q)).
    """

    design: TxProbDesign
    alpha: float = 0.5
    backoff_window: int = 8
    fail_count: int = 0
    backoff_remaining: int = 0

    def base_p(self, s: NodeState, params: NetworkParams) -> float:
        return tx_prob(self.design, s.battery, s.queue, params)

    def effective_p(self, s: NodeState, params: NetworkParams) -> float:
        return escalate(self.base_p(s, params), self.alpha, self.fail_count)

    def on_collision(self, rng):
        self.fail_count += 1
        self.backoff_remaining = 1 + int(rng.random() * self.backoff_window)

    def on_ber_failure(self):
        # a corrupted frame is still a failed frame; no backoff, the medium was won
        self.fail_count += 1

    def on_success(self):
        self.fail_count = 0

    def tick(self):
        if self.backoff_remaining > 0:
            self.backoff_remaining -= 1


def eqat_decide(
    ctl: EqatController,
    s: NodeState,
    params: NetworkParams,
    rng,
    profile: NodeEnergyProfile | None = None,
) -> Decision:
    """One slot of the contention loop for a single node.

    Nodes in backoff or without an affordable packet stay idle. Otherwise
    the node transmits with its escalated probability, from its own state
    alone.
    """
    if profile is None:
        profile = node_energy_profile(params, node=0)
    if ctl.backoff_remaining > 0 or not can_transmit(s, profile):
        return Decision.IDLE
    if rng.random() >= ctl.effective_p(s, params):
        return Decision.IDLE
    return Decision.TRANSMIT


def advertised(ctls: list[EqatController], batteries: list[int], queues: list[int],
               params: NetworkParams, profiles: list[NodeEnergyProfile]) -> list[float]:
    """Every node's beacon at the start of a slot, in index order.

    A node that can transmit and is not backing off advertises its working
    probability, escalate(f(e, q), alpha, fails); every other node 0.0.
    """
    return [ctl.effective_p(s, params)
            if ctl.backoff_remaining <= 0 and can_transmit(s, profile) else 0.0
            for ctl, s, profile in zip(ctls, map(NodeState, batteries, queues), profiles)]


def transmit_ready(sim) -> list[int]:
    """Every node of `sim` with a packet and the battery for one transmission, in index order."""
    queues = sim.queues
    return [i for i in sim.powered if queues[i] >= 1]


class FullQueueContention(Strategy):
    """`dfq` the direct way: every node whose queue is full (and can afford it) transmits."""

    def select(self, sim):
        # queue_cap >= 1, so a powered node with a full queue can transmit
        cap, queues = sim.params.queue_cap, sim.queues
        return [i for i in sim.powered if queues[i] >= cap]


class FixedProbContention(Strategy):
    """`rc` the direct way: each backlogged node transmits with a fixed contention probability."""

    def __init__(self, contention_prob: float = 0.75):
        self.contention_prob = contention_prob

    def select(self, sim):
        uniform, p = sim.strategy_uniform, self.contention_prob
        return [i for i in transmit_ready(sim) if uniform() < p]
