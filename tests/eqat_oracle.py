"""Per-node reference of the EQAT contention loop, kept as a test oracle.

`rwsnsim.simulator.EqatStrategy` runs the contention loop for all nodes at
once: per-run `fails`/`backoff` lists, contenders and beacon values cached
at the end of each slot, competitor products over the contenders only. This
module writes the same loop the slow, direct way, one node at a time, so the
strategy can be checked against it:

  * `EqatController` holds one node's fail counter and backoff clock and
    applies the events that change them; `TestIncrementalBookkeeping` and
    `TestEqatIntegration` compare the strategy's lists with a shadow set of
    controllers slot by slot;
  * `eqat_decide` is one node's decision in one slot (nomination draw, then
    the threshold gate on the competitors' beacon values);
    `TestEqatIntegration` checks `EqatStrategy.select` against it every slot;
  * `collision_prob` and `collided_transition` are the per-node collision
    law: the chance some competitor transmits, and the transition law of a
    contending node facing competitors at given probabilities. They check
    that this law closes (rows sum to one), collapses to the scheduled
    node's law when the competitors are silent, and matches the simulator's
    frequencies (`TestCollidedNodeLawFrequencies`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from joint_oracle import Dist, can_transmit, node_transition
from rwsnsim.core import NetworkParams, NodeState
from rwsnsim.energy import NodeEnergyProfile, node_energy_profile, packet_success_prob
from rwsnsim.eqat import TxProbDesign, escalate, tx_prob


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
    cost, as in `Simulation.step`. With silent competitors this collapses
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
    HOLD = "hold"       # threshold gate vetoed the attempt
    IDLE = "idle"       # did not nominate, backing off, or nothing to send


@dataclass
class EqatController:
    """One node's contention state: escalation counter and backoff clock.

    The working probability is min(1, (1 + alpha)^fails * f(e, q)); see
    `EqatStrategy` for why a threshold veto leaves the counter alone.
    """

    design: TxProbDesign
    alpha: float = 0.5
    threshold: float = 0.0
    backoff_window: int = 8
    fail_count: int = 0
    backoff_remaining: int = 0

    def base_p(self, s: NodeState, params: NetworkParams) -> float:
        return tx_prob(self.design, s.battery, s.queue, params)

    def effective_p(self, s: NodeState, params: NetworkParams) -> float:
        return escalate(self.base_p(s, params), self.alpha, self.fail_count)

    def on_collision(self, rng):
        self.fail_count += 1
        self.backoff_remaining = int(rng.integers(1, self.backoff_window + 1))

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
    p_others: list[float],
    params: NetworkParams,
    rng,
    profile: NodeEnergyProfile | None = None,
) -> Decision:
    """One slot of the contention loop for a single node.

    Nodes in backoff or without an affordable packet stay idle. Otherwise
    the node nominates itself with its escalated probability, then checks
    the mass of its intended move (clean transmission that shortens the
    queue) against the threshold; too risky a slot is held.
    """
    if profile is None:
        profile = node_energy_profile(params, node=0)
    if ctl.backoff_remaining > 0 or not can_transmit(s, profile):
        return Decision.IDLE
    if rng.random() >= ctl.effective_p(s, params):
        return Decision.IDLE
    clear = 1.0
    for p in p_others:
        clear *= 1.0 - p
    no_arrival = (1.0 - params.arrival_prob) ** params.arrivals_per_slot
    intended_mass = packet_success_prob(params) * no_arrival * clear
    if intended_mass < ctl.threshold:
        return Decision.HOLD
    return Decision.TRANSMIT
