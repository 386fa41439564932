"""Shared model types: network parameters, their validation, the arrival law, channel draws.

Everything here is immutable after construction and safe to share across
workers. Parameter validation is a total function that reports all
violations instead of raising on the first one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, inf

import numpy as np


@dataclass(frozen=True)
class NetworkParams:
    """All physical and protocol constants of the homogeneous network.

    Battery is discretized into ``battery_levels`` steps of
    ``battery_quantum`` joules; a node's level lives in
    {0, ..., battery_levels} (the zero level exists, so there are K+1
    distinct values even though capacity is K quanta). Queue length lives
    in {0, ..., queue_cap}.
    """

    n_nodes: int
    packet_bits: int = 256
    ber_target: float = 5e-4
    kappa1: float = 0.2
    kappa2: float = 3.0
    bs_power: float = 3.0
    transfer_efficiency: float = 0.4
    bandwidth: float = 250e3
    slot_len: float = 10e-3
    arrival_period: float = 10e-3
    arrival_prob: float = 0.30
    battery_levels: int = 5
    battery_quantum: float = 2.5e-3
    queue_cap: int = 6
    max_modulation: int = 5
    channel_gain: tuple[float, ...] | None = None
    discount: float = 0.95
    vi_tol: float = 1e-6
    initial_battery: int | None = None

    def __post_init__(self):
        if self.channel_gain is None:
            object.__setattr__(self, "channel_gain", (1.0,) * self.n_nodes)
        else:
            object.__setattr__(self, "channel_gain", tuple(float(g) for g in self.channel_gain))
        if self.initial_battery is None:
            object.__setattr__(self, "initial_battery", self.battery_levels)

    @property
    def arrivals_per_slot(self) -> int:
        """Arrival opportunities per scheduling slot (>= 1).

        Python's round (half to even) of the float ratio slot_len /
        arrival_period, so along an interval sweep the offered load is not
        proportional to the slot: at the default 10 ms period, slots of 15,
        25, 35 and 45 ms get 2, 2, 4 and 4 opportunities (0.035 / 0.01 is
        3.5000000000000004, which rounds up). `validate` requires a positive
        arrival_period.
        """
        return max(1, round(self.slot_len / self.arrival_period))

    @property
    def per_node_states(self) -> int:
        return (self.battery_levels + 1) * (self.queue_cap + 1)

    @property
    def joint_state_count(self) -> int:
        return self.per_node_states**self.n_nodes


def arrival_pmf(params: NetworkParams) -> np.ndarray:
    """P(X = x), x = 0..k: the packets one node receives over a slot, Binomial(k, lambda),
    k `arrivals_per_slot` draws of `arrival_prob` as the simulator makes them;
    the law the MDP's kernels read. Raises ValueError above k = 1,029, whose
    binomial coefficients overflow a float."""
    k, lam = params.arrivals_per_slot, params.arrival_prob
    try:
        return np.array([comb(k, x) * lam**x * (1.0 - lam) ** (k - x) for x in range(k + 1)])
    except OverflowError:
        raise ValueError(f"arrivals_per_slot = {k} (slot_len {params.slot_len} / arrival_period "
                         f"{params.arrival_period}) is above 1029, the most whose arrival law "
                         "fits a float") from None


def validate(params: NetworkParams) -> list[str]:
    """Return every violated parameter invariant (empty list means ok).

    Float bounds are written as `not 0 < x < inf` rather than `x <= 0`, so a
    NaN fails them, and so does an infinite quantity, once per field.
    """
    v: list[str] = []
    p = params
    if p.n_nodes < 1:
        v.append("n_nodes must be >= 1")
    if p.packet_bits < 1:
        v.append("packet_bits must be >= 1")
    if not (0.0 < p.ber_target < 1.0):
        v.append("ber_target must lie strictly in (0, 1)")
    if not p.ber_target < p.kappa1 < inf:
        v.append("ln(kappa1/ber_target) must be positive and finite (ber_target < kappa1 < inf)")
    if not 0 < p.kappa2 < inf:
        v.append("kappa2 must be positive and finite")
    if not 0 <= p.bs_power < inf:
        v.append("bs_power must be non-negative and finite")
    if not (0.0 <= p.transfer_efficiency <= 1.0):
        v.append("transfer_efficiency must lie in [0, 1]")
    if not 0 < p.bandwidth < inf:
        v.append("bandwidth must be positive and finite")
    if not 0 < p.slot_len < inf:
        v.append("slot_len must be positive and finite")
    if not 0 < p.arrival_period < inf:
        v.append("arrival_period must be positive and finite")
    if not (0.0 <= p.arrival_prob <= 1.0):
        v.append("arrival_prob must lie in [0, 1]")
    if p.battery_levels < 1:
        v.append("battery_levels must be >= 1")
    if not 0 < p.battery_quantum < inf:
        v.append("battery_quantum must be positive and finite")
    if p.queue_cap < 1:
        v.append("queue_cap must be >= 1")
    if p.max_modulation < 1:
        v.append("max_modulation must be >= 1")
    if len(p.channel_gain) != p.n_nodes:
        v.append("channel_gain must have one entry per node")
    if not all(0 < g < inf for g in p.channel_gain):
        v.append("every channel_gain entry must be positive and finite")
    if p.slot_len * p.bandwidth * p.max_modulation < p.packet_bits:
        v.append("a packet must fit in one slot at the fastest modulation "
                 "(slot_len * bandwidth * max_modulation >= packet_bits)")
    if not (0.0 <= p.discount < 1.0):
        v.append("discount must lie in [0, 1)")
    if not 0 < p.vi_tol < inf:
        v.append("vi_tol must be positive and finite")
    if not (0 <= p.initial_battery <= p.battery_levels):
        v.append("initial_battery must lie in [0, battery_levels]")
    return v


def draw_channel_gains(
    n_nodes: int,
    seed: int = 52,
    reference_gain: float = 11.0,
    reference_dist: float = 10.0,
    min_dist: float = 34.0,
    max_dist: float = 44.0,
    pathloss_exp: float = 2.0,
) -> tuple[float, ...]:
    """Static per-node power gains from a log-distance path-loss draw.

    Nodes are placed uniformly in [min_dist, max_dist] metres from the
    base station; gain_i = reference_gain * (reference_dist / d_i)**pathloss_exp.
    The draw is deterministic in (seed, n_nodes) so a scenario resolves to
    the same network every time. Raises one ValueError naming every bad argument.
    """
    bad = [f"{name} must be positive and finite" for name, x in (
        ("reference_gain", reference_gain), ("reference_dist", reference_dist),
        ("min_dist", min_dist), ("max_dist", max_dist), ("pathloss_exp", pathloss_exp),
    ) if not 0 < x < inf]
    if min_dist > max_dist:
        bad.append("min_dist must be <= max_dist")
    if seed < 0:
        bad.append("seed must be >= 0")
    if bad:
        raise ValueError("; ".join(bad))
    rng = np.random.default_rng([seed, n_nodes])
    dist = rng.uniform(min_dist, max_dist, size=n_nodes)
    gains = reference_gain * (reference_dist / dist) ** pathloss_exp
    return tuple(float(g) for g in gains)
