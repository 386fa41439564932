"""Semi-decentralized contention: self-nomination probabilities, collision law,
and the per-node decide/backoff controller.

Each node nominates itself with a probability that grows with its queue and
shrinks with its battery, checks the resulting transition mass against a
threshold before actually transmitting, and backs off multiplicatively on
collisions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import NetworkParams, NodeState, check_node_state
from .energy import NodeEnergyProfile, node_energy_profile, packet_success_prob
from .mdp import Dist, _clamp, _merge, can_transmit, selected_transition


@dataclass(frozen=True)
class TxProbDesign:
    """Family and parameters of the self-nomination probability p = f(e, q).

    kinds:
      exponential  (1 - exp(-rate_q * q)) * exp(-rate_e * e), raw level units
      sigmoid      sin(pi/2 * q/Q) * cos(pi/2 * e/K), normalized units
      gamma        regularized lower incomplete gamma of q / (scale * e)
    """

    kind: str
    rate_q: float = 0.5
    rate_e: float = 0.5
    shape: float = 2.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("exponential", "sigmoid", "gamma"):
            raise ValueError(f"unknown design kind {self.kind!r}")
        if self.kind == "exponential" and (self.rate_q <= 0 or self.rate_e <= 0):
            raise ValueError("exponential rates must be positive")
        if self.kind == "gamma" and (self.shape <= 0 or self.scale <= 0):
            raise ValueError("gamma shape and scale must be positive")

    @classmethod
    def exponential(cls, rate: float = 0.5, rate_e: float | None = None) -> "TxProbDesign":
        # run labels like "exp 0.5" set both per-unit rates to the same value
        return cls(kind="exponential", rate_q=rate, rate_e=rate if rate_e is None else rate_e)

    @classmethod
    def sigmoid(cls) -> "TxProbDesign":
        return cls(kind="sigmoid")

    @classmethod
    def gamma(cls, shape: float = 2.0, scale: float = 1.0) -> "TxProbDesign":
        return cls(kind="gamma", shape=shape, scale=scale)

    @classmethod
    def parse(cls, token: str) -> "TxProbDesign":
        """Parse CLI/config tokens: sigmoid | exp:RATE | exp:RQ:RE | gamma:SHAPE:SCALE."""
        parts = token.strip().lower().split(":")
        name, args = parts[0], [float(x) for x in parts[1:]]
        if name in ("sigmoid", "sig"):
            return cls.sigmoid()
        if name in ("exp", "exponential"):
            if len(args) == 0:
                return cls.exponential()
            if len(args) == 1:
                return cls.exponential(args[0])
            return cls.exponential(args[0], args[1])
        if name == "gamma":
            if len(args) == 0:
                return cls.gamma()
            if len(args) == 1:
                return cls.gamma(args[0])
            return cls.gamma(args[0], args[1])
        raise ValueError(f"unknown design token {token!r}")

    @property
    def label(self) -> str:
        if self.kind == "exponential":
            if self.rate_q == self.rate_e:
                return f"exp:{self.rate_q:g}"
            return f"exp:{self.rate_q:g}:{self.rate_e:g}"
        if self.kind == "gamma":
            return f"gamma:{self.shape:g}:{self.scale:g}"
        return "sigmoid"


def tx_prob(design: TxProbDesign, battery: int, queue: int, params: NetworkParams) -> float:
    """Self-nomination probability at a (battery, queue) point; always in [0, 1]."""
    check_node_state(NodeState(battery, queue), params)
    if queue == 0:
        return 0.0
    if design.kind == "exponential":
        return (1.0 - math.exp(-design.rate_q * queue)) * math.exp(-design.rate_e * battery)
    if design.kind == "sigmoid":
        return math.sin(0.5 * math.pi * queue / params.queue_cap) * math.cos(
            0.5 * math.pi * battery / params.battery_levels
        )
    # gamma: the argument q/(scale * e) blows up as e -> 0, where the
    # regularized gamma saturates at 1
    if battery == 0:
        return 1.0
    # imported here: scipy costs more to import than the rest of the package
    from scipy.special import gammainc

    return float(gammainc(design.shape, queue / (design.scale * battery)))


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

    With silent competitors this collapses to the scheduled-node law. A
    sixth (collision and arrival) case closes the normalization gap left
    by the five nominal cases; without it the masses sum to
    1 - Pr_c * (1 - ps) * lambda.
    """
    check_node_state(s, params)
    if profile is None:
        profile = node_energy_profile(params, node)
    if not can_transmit(s, profile):
        return selected_transition(s, params, node=node, profile=profile)

    clear = 1.0
    for p in p_others:
        clear *= 1.0 - p
    col = 1.0 - clear
    ps = packet_success_prob(params)
    lam = params.arrival_prob
    K, Q = params.battery_levels, params.queue_cap
    e_up = _clamp(s.battery + profile.delta_levels, K)
    e_dn = _clamp(s.battery - profile.min_tx_level, K)
    q_up = min(s.queue + 1, Q)
    stay = (1.0 - ps) * (1.0 - lam) + ps * lam
    return _merge([
        (NodeState(e_up, q_up), (1.0 - ps) * lam * clear),
        (NodeState(e_up, s.queue - 1), ps * (1.0 - lam) * clear),
        (NodeState(e_up, s.queue), stay * clear),
        (NodeState(e_dn, s.queue), stay * col),
        (NodeState(e_dn, s.queue - 1), ps * (1.0 - lam) * col),
        # collision meets a new arrival: the unique combination the nominal
        # cases leave out
        (NodeState(e_dn, q_up), (1.0 - ps) * lam * col),
    ])


def escalate(base: float, alpha: float, fails: int) -> float:
    """min(1, (1 + alpha)^fails * base), safe for unbounded fail counts."""
    if base <= 0.0:
        return 0.0
    if fails * math.log1p(alpha) + math.log(base) >= 0.0:
        return 1.0
    return (1.0 + alpha) ** fails * base


class Decision(enum.Enum):
    TRANSMIT = "transmit"
    HOLD = "hold"       # threshold gate vetoed the attempt
    IDLE = "idle"       # did not nominate, backing off, or nothing to send


@dataclass
class EqatController:
    """Per-node contention state: escalation counter and backoff clock.

    The working probability is min(1, (1 + alpha)^fails * f(e, q)). fails
    counts frames that were actually transmitted and failed (collided or
    corrupted) and resets to zero on success, returning the probability to
    its design value. A threshold veto transmits nothing, so it leaves the
    counter alone; escalating on vetoes feeds back into everyone else's
    risk estimate and locks the whole network silent.
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
    intended_mass = packet_success_prob(params) * (1.0 - params.arrival_prob) * clear
    if intended_mass < ctl.threshold:
        return Decision.HOLD
    return Decision.TRANSMIT
