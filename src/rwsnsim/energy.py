"""Closed-form energy and link math.

Covers downlink transfer power, BER-constrained uplink transmit power,
the a-priori optimal modulation order (net-energy argmax, found by an
ascending scan that stops where the unimodal balance stops improving),
and the quantized battery moves: the one place the per-node slot law's
battery half is written, which the MDP's kernels and the simulator read,
each looking them up by its params (`energy_profiles` is memoized).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .core import NetworkParams


class ModulationInfeasibleError(ValueError):
    """No modulation order fits the packet inside one slot."""


@dataclass(frozen=True)
class NodeEnergyProfile:
    """Per-node quantized energy figures, computed once per network (`energy_profiles`).

    delta_levels may be negative (transmit cost can exceed harvest). Each
    `after_*` table gives the level after such a slot from each level 0..K.
    """

    order: int                 # modulation order, see `optimal_modulation`
    tx_duration: float         # seconds spent transmitting
    tx_energy: float           # joules spent transmitting
    net_energy: float          # joules gained in a clean scheduled slot
    delta_levels: int          # net battery gain of a clean scheduled slot
    harvest_only_levels: int   # gain of a slot spent charging only
    min_tx_level: int          # levels required to afford one transmission
    after_tx: tuple[int, ...]         # a transmission, delivered or not: + delta_levels
    after_charge: tuple[int, ...]     # a slot spent charging only: + harvest_only_levels
    after_collision: tuple[int, ...]  # a collision, transmit cost with no charge: - min_tx_level


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


def optimal_modulation(params: NetworkParams, node: int) -> int:
    """Order in {1..M} maximizing the slot energy balance; ties to smaller order.

    Restricted to orders whose transmit duration fits the slot; raises
    ModulationInfeasibleError when none does. The balance is unimodal in the
    order: its first-order condition reduces to
    rho * 2^rho * ln2 - 2^rho = efficiency * P_bs * kappa2 * gain^2 / ln(kappa1/ber) - 1,
    whose left side is strictly increasing (packet length and bandwidth
    cancel out). So an ascending scan over the feasible orders may stop at
    the first order that does not improve, which also keeps 2^rho finite
    for any M.
    """
    best = None
    for rho in range(1, params.max_modulation + 1):
        if params.packet_bits / (rho * params.bandwidth) > params.slot_len * (1 + 1e-12):
            continue  # too slow to fit the slot; higher orders are faster
        value = _net_energy(params, node, rho)
        if best is not None and value <= best[1]:
            break
        best = (rho, value)
    if best is None:
        raise ModulationInfeasibleError(
            f"packet of {params.packet_bits} bits does not fit a {params.slot_len}s slot "
            f"even at order {params.max_modulation}"
        )
    return best[0]


def node_energy_profile(params: NetworkParams, node: int) -> NodeEnergyProfile:
    rho = optimal_modulation(params, node)
    tx_duration = params.packet_bits / (rho * params.bandwidth)
    tx_energy = tx_duration * transmit_power(params, node, rho)
    net_energy = _net_energy(params, node, rho)
    quantum, top = params.battery_quantum, params.battery_levels
    delta = quantize_levels(net_energy, quantum)
    harvest = quantize_levels(params.slot_len * transfer_power(params, node), quantum)
    cost = math.ceil(tx_energy / quantum)   # a ceiling: a transmission's cost is never understated
    # each battery move, clamped to [0, K] here and nowhere else (overcharge is wasted)
    after_tx, after_charge, after_collision = (
        tuple(min(max(b + g, 0), top) for b in range(top + 1)) for g in (delta, harvest, -cost))
    return NodeEnergyProfile(
        order=rho, tx_duration=tx_duration, tx_energy=tx_energy, net_energy=net_energy,
        delta_levels=delta, harvest_only_levels=harvest, min_tx_level=cost,
        after_tx=after_tx, after_charge=after_charge, after_collision=after_collision)


@cache
def energy_profiles(params: NetworkParams) -> tuple[NodeEnergyProfile, ...]:
    """Every node's profile; equal params share one tuple, as `NetworkParams`
    and the profiles are immutable (an entry per network: 2 KB at N=3, 24 KB at N=50)."""
    return tuple(node_energy_profile(params, n) for n in range(params.n_nodes))
