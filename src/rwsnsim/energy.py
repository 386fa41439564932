"""Closed-form energy and link math.

Covers downlink transfer power, BER-constrained uplink transmit power,
the a-priori optimal modulation order (net-energy argmax, solved by
bisection of its first-order condition plus an integer neighbor check),
and the quantized battery deltas the scheduler and simulator apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import NetworkParams


class ModulationInfeasibleError(ValueError):
    """No modulation order fits the packet inside one slot."""


@dataclass(frozen=True)
class ModulationDecision:
    """Chosen modulation order and the energy budget it implies."""

    order: int
    net_energy_gain: float  # joules gained in a clean scheduled slot
    tx_duration: float      # seconds spent transmitting
    tx_energy: float        # joules spent transmitting


@dataclass(frozen=True)
class NodeEnergyProfile:
    """Per-node quantized energy figures, precomputed once per scenario.

    delta_levels may be negative (transmit cost can exceed harvest);
    callers clamp the battery to [0, K] on application.
    """

    node: int
    order: int
    tx_duration: float
    tx_energy: float
    net_energy: float
    delta_levels: int          # net battery gain of a clean scheduled slot
    harvest_only_levels: int   # gain of a slot spent charging only
    min_tx_level: int          # levels required to afford one transmission


def transfer_power(params: NetworkParams, node: int) -> float:
    """Downlink power received by a node: efficiency * BS power * gain."""
    return params.transfer_efficiency * params.bs_power * params.channel_gain[node]


def transmit_power(params: NetworkParams, node: int, rho: int) -> float:
    """Uplink power needed to hit the BER target at modulation order rho."""
    if not (1 <= rho <= params.max_modulation):
        raise ValueError(f"modulation order {rho} outside [1, {params.max_modulation}]")
    g = params.channel_gain[node]
    return math.log(params.kappa1 / params.ber_target) / params.kappa2 * (2**rho - 1) / g


def packet_success_prob(params: NetworkParams) -> float:
    """Probability a whole packet survives: (1 - ber)^bits."""
    return (1.0 - params.ber_target) ** params.packet_bits


def quantize_levels(energy: float, quantum: float) -> int:
    """Lower-round an energy amount to whole battery levels (signed)."""
    return math.floor(energy / quantum)


def _net_energy(params: NetworkParams, node: int, rho: int) -> float:
    """Slot energy balance at order rho: WPT over the remainder minus tx cost."""
    tx_dur = params.packet_bits / (rho * params.bandwidth)
    harvest = (params.slot_len - tx_dur) * transfer_power(params, node)
    return harvest - tx_dur * transmit_power(params, node, rho)


def _stationary_order(params: NetworkParams, node: int) -> float:
    """Continuous root of the net-energy first-order condition.

    The condition reduces to  rho * 2^rho * ln2 - 2^rho = rhs  with
    rhs = efficiency * P_bs * kappa2 * gain^2 / ln(kappa1/ber) - 1; the
    left side is strictly increasing, so bisection applies. Packet length
    and bandwidth cancel out of the condition (they scale both derivative
    terms equally).
    """
    g = params.channel_gain[node]
    rhs = (
        params.transfer_efficiency
        * params.bs_power
        * params.kappa2
        * g * g
        / math.log(params.kappa1 / params.ber_target)
        - 1.0
    )

    def lhs(rho: float) -> float:
        return rho * 2.0**rho * math.log(2.0) - 2.0**rho

    lo, hi = 1e-9, 1.0
    if lhs(lo) >= rhs:
        return lo
    while lhs(hi) < rhs:
        hi *= 2.0
        if hi > 512.0:  # far beyond any modulation ladder; 2^rho would overflow
            return hi
    for _ in range(80):  # width 1e-9 .. 512 halved 80 times << 1e-6 tolerance
        mid = 0.5 * (lo + hi)
        if lhs(mid) < rhs:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-6:
            break
    return 0.5 * (lo + hi)


def optimal_modulation(params: NetworkParams, node: int) -> ModulationDecision:
    """Order in {1..M} maximizing the slot energy balance; ties to smaller order.

    Restricted to orders whose transmit duration fits the slot; raises
    ModulationInfeasibleError when none does.
    """
    feasible_lo = None
    for rho in range(1, params.max_modulation + 1):
        if params.packet_bits / (rho * params.bandwidth) <= params.slot_len * (1 + 1e-12):
            feasible_lo = rho
            break
    if feasible_lo is None:
        raise ModulationInfeasibleError(
            f"packet of {params.packet_bits} bits does not fit a {params.slot_len}s slot "
            f"even at order {params.max_modulation}"
        )

    root = _stationary_order(params, node)
    candidates = {
        min(max(math.floor(root), feasible_lo), params.max_modulation),
        min(max(math.ceil(root), feasible_lo), params.max_modulation),
    }
    best = None
    for rho in sorted(candidates):  # ascending, so strict > keeps the smaller order on ties
        value = _net_energy(params, node, rho)
        if best is None or value > best[1]:
            best = (rho, value)
    rho, value = best
    return ModulationDecision(
        order=rho,
        net_energy_gain=value,
        tx_duration=params.packet_bits / (rho * params.bandwidth),
        tx_energy=params.packet_bits / (rho * params.bandwidth) * transmit_power(params, node, rho),
    )


def node_energy_profile(params: NetworkParams, node: int) -> NodeEnergyProfile:
    dec = optimal_modulation(params, node)
    quantum = params.battery_quantum
    return NodeEnergyProfile(
        node=node,
        order=dec.order,
        tx_duration=dec.tx_duration,
        tx_energy=dec.tx_energy,
        net_energy=dec.net_energy_gain,
        delta_levels=quantize_levels(dec.net_energy_gain, quantum),
        harvest_only_levels=quantize_levels(params.slot_len * transfer_power(params, node), quantum),
        # ceiling, so the cost of a transmission is never understated
        min_tx_level=math.ceil(dec.tx_energy / quantum),
    )


def energy_profiles(params: NetworkParams) -> list[NodeEnergyProfile]:
    return [node_energy_profile(params, n) for n in range(params.n_nodes)]
