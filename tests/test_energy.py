"""Energy math: power formulas, modulation argmax, quantization."""

import math

import numpy as np
import pytest

from rwsnsim.core import NetworkParams, validate
from rwsnsim.energy import (
    ModulationInfeasibleError,
    energy_profiles,
    node_energy_profile,
    optimal_modulation,
    packet_success_prob,
    quantize_levels,
    transfer_power,
    transmit_power,
)
from rwsnsim.mdp import MyopicChooser, build_model

# ln(0.2 / 5e-4) / 3, evaluated at 40 digits
PD_RHO1_UNIT_GAIN = 1.997154849035994
# (1 - 5e-4)^256, evaluated at 40 digits
PS_REFERENCE = 0.8798252148986683


def make_params(**kw):
    kw.setdefault("n_nodes", 1)
    return NetworkParams(**kw)


def reference_objective(p: NetworkParams, node: int, rho: int) -> float:
    """Slot net-energy objective written out from the raw formulas."""
    g = p.channel_gain[node]
    dur = p.packet_bits / (rho * p.bandwidth)
    harvest = (p.slot_len - dur) * p.transfer_efficiency * p.bs_power * g
    tx = dur * math.log(p.kappa1 / p.ber_target) / p.kappa2 * (2**rho - 1) / g
    return harvest - tx


def brute_force_order(p: NetworkParams, node: int):
    """Exhaustive argmax over feasible orders; ties to the smaller order."""
    best = None
    for rho in range(1, p.max_modulation + 1):
        if p.packet_bits / (rho * p.bandwidth) > p.slot_len * (1 + 1e-12):
            continue
        val = reference_objective(p, node, rho)
        if best is None or val > best[1]:
            best = (rho, val)
    return best


class TestTransferPower:
    def test_unit_gain(self):
        p = make_params(bs_power=3.0, transfer_efficiency=1.0, channel_gain=(1.0,))
        assert transfer_power(p, 0) == 3.0

    def test_zero_source(self):
        p = make_params(bs_power=0.0)
        assert transfer_power(p, 0) == 0.0

    def test_product(self):
        p = make_params(bs_power=3.0, transfer_efficiency=0.4, channel_gain=(0.5,))
        assert transfer_power(p, 0) == pytest.approx(0.6, rel=1e-15)


class TestTransmitPower:
    def test_reference_value_rho1(self):
        p = make_params(kappa1=0.2, kappa2=3.0, ber_target=5e-4, channel_gain=(1.0,))
        assert transmit_power(p, 0, 1) == pytest.approx(PD_RHO1_UNIT_GAIN, rel=1e-12)

    def test_rho2_is_three_times_rho1(self):
        p = make_params()
        assert transmit_power(p, 0, 2) == pytest.approx(3 * transmit_power(p, 0, 1), rel=1e-15)

    def test_double_gain_halves_power(self):
        p1 = make_params(channel_gain=(1.0,))
        p2 = make_params(channel_gain=(2.0,))
        assert transmit_power(p2, 0, 3) == pytest.approx(transmit_power(p1, 0, 3) / 2, rel=1e-15)

    def test_rejects_out_of_range_order(self):
        p = make_params(max_modulation=4)
        with pytest.raises(ValueError):
            transmit_power(p, 0, 0)
        with pytest.raises(ValueError):
            transmit_power(p, 0, 5)

    def test_strictly_increasing_in_rho(self):
        p = make_params(max_modulation=8)
        powers = [transmit_power(p, 0, r) for r in range(1, 9)]
        assert all(a < b for a, b in zip(powers, powers[1:]))


class TestPacketSuccess:
    def test_zero_ber(self):
        assert packet_success_prob(make_params(ber_target=0.0)) == 1.0

    def test_one_ber(self):
        assert packet_success_prob(make_params(ber_target=1.0)) == 0.0

    def test_reference_value(self):
        p = make_params(ber_target=5e-4, packet_bits=256)
        assert packet_success_prob(p) == pytest.approx(PS_REFERENCE, abs=1e-12)


class TestQuantization:
    def test_floor_semantics(self):
        q = 2.5e-3
        assert quantize_levels(2.999 * q, q) == 2
        assert quantize_levels(0.0, q) == 0
        assert quantize_levels(-0.1 * q, q) == -1

    def test_floor_stability_below_boundary(self):
        q = 1e-3
        base = 3.2 * q
        for bump in (0.0, 0.2 * q, 0.7 * q):
            assert quantize_levels(base + bump, q) == 3


class TestOptimalModulation:
    def test_singleton_candidate_set(self):
        p = make_params(max_modulation=1)
        assert optimal_modulation(p, 0) == 1

    def test_decreasing_objective_picks_one(self):
        # weak channel: transmit power dominates, so the balance decays with order
        p = make_params(channel_gain=(0.3,))
        prof = node_energy_profile(p, 0)
        assert prof.order == 1
        assert (prof.order, prof.net_energy) == pytest.approx(brute_force_order(p, 0))

    def test_matches_brute_force_on_random_draws(self):
        rng = np.random.default_rng(20240811)
        checked = 0
        for _ in range(1000):
            p = make_params(
                channel_gain=(float(10 ** rng.uniform(-1.2, 1.2)),),
                bs_power=float(rng.uniform(0.1, 10.0)),
                transfer_efficiency=float(rng.uniform(0.05, 1.0)),
                bandwidth=float(10 ** rng.uniform(4.0, 6.0)),
                slot_len=float(10 ** rng.uniform(-3.0, -1.0)),
                packet_bits=int(rng.integers(64, 1025)),
                max_modulation=int(rng.integers(1, 9)),
                kappa1=float(rng.uniform(0.05, 0.5)),
                kappa2=float(rng.uniform(0.5, 5.0)),
                ber_target=float(10 ** rng.uniform(-5.0, -2.0)),
            )
            expected = brute_force_order(p, 0)
            if expected is None:
                with pytest.raises(ModulationInfeasibleError):
                    optimal_modulation(p, 0)
                continue
            prof = node_energy_profile(p, 0)
            assert prof.order == expected[0]
            assert prof.net_energy == pytest.approx(expected[1], rel=1e-9, abs=1e-15)
            checked += 1
        assert checked > 800  # most draws should be feasible

    def test_peak_dominates_neighbors(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = make_params(
                channel_gain=(float(10 ** rng.uniform(-1.0, 1.0)),),
                max_modulation=6,
            )
            rho = optimal_modulation(p, 0)
            val = reference_objective(p, 0, rho)
            for nb in (rho - 1, rho + 1):
                if 1 <= nb <= p.max_modulation:
                    assert val >= reference_objective(p, 0, nb) - 1e-12

    def test_huge_ladder_stops_at_the_peak(self):
        # 2**rho no longer converts to a float from rho = 1024, so the scan
        # must stop where the balance stops improving
        p = make_params(channel_gain=(1e4,), max_modulation=5000)
        prof = node_energy_profile(p, 0)
        expected = brute_force_order(make_params(channel_gain=(1e4,), max_modulation=64), 0)
        assert prof.order > 5
        assert (prof.order, prof.net_energy) == pytest.approx(expected)

    def test_infeasible_packet_raises(self):
        p = make_params(slot_len=1e-6, bandwidth=1e4, max_modulation=2, packet_bits=256)
        with pytest.raises(ModulationInfeasibleError):
            optimal_modulation(p, 0)
        with pytest.raises(ModulationInfeasibleError):
            node_energy_profile(p, 0)

    def test_decision_invariants(self):
        p = make_params()
        prof = node_energy_profile(p, 0)
        assert 1 <= prof.order <= p.max_modulation
        assert prof.tx_duration <= p.slot_len
        assert prof.tx_energy > 0


class TestHarvestDelta:
    def test_brackets_unquantized_balance(self):
        p = make_params(n_nodes=3, channel_gain=(0.5, 1.0, 1.5))
        for node in range(3):
            levels = node_energy_profile(p, node).delta_levels
            net = node_energy_profile(p, node).net_energy
            assert levels * p.battery_quantum <= net < (levels + 1) * p.battery_quantum

    def test_profile_consistency(self):
        p = make_params(channel_gain=(0.8,))
        prof = node_energy_profile(p, 0)
        assert prof.order == optimal_modulation(p, 0)
        assert prof.delta_levels == quantize_levels(prof.net_energy, p.battery_quantum)
        assert prof.min_tx_level == math.ceil(prof.tx_energy / p.battery_quantum)
        assert prof.harvest_only_levels >= 0
        # a charging-only slot beats a transmitting slot in raw battery terms
        assert prof.harvest_only_levels >= prof.delta_levels

    def test_move_tables_clamp_each_gain_to_the_battery(self):
        # a weak, a middling and a strong downlink: losses, gains and overcharge
        p = make_params(n_nodes=3, channel_gain=(0.3, 1.0, 5.0), battery_levels=8)
        top = p.battery_levels
        for node in range(3):
            prof = node_energy_profile(p, node)
            for table, gain in ((prof.after_tx, prof.delta_levels),
                                (prof.after_charge, prof.harvest_only_levels),
                                (prof.after_collision, -prof.min_tx_level)):
                assert table == tuple(min(max(b + gain, 0), top) for b in range(top + 1))
                assert all(type(level) is int for level in table)


class TestProfiles:
    def test_equal_params_share_one_tuple(self):
        p = make_params(n_nodes=3, channel_gain=(0.5, 1.0, 2.0))
        profiles = energy_profiles(p)
        assert isinstance(profiles, tuple)
        assert energy_profiles(make_params(n_nodes=3, channel_gain=(0.5, 1.0, 2.0))) is profiles
        assert profiles == tuple(node_energy_profile(p, n) for n in range(3))
        assert energy_profiles(make_params(n_nodes=3, channel_gain=(0.5, 1.0, 2.5))) != profiles

    def test_params_that_validate_give_profiles_and_a_myopic_chooser(self):
        # core.validate's fit check is stricter than optimal_modulation's, so
        # a scenario that passes it never fails on its profiles; exactly at
        # packet_bits == slot_len * bandwidth * max_modulation both accept
        exact = make_params(n_nodes=2, slot_len=2.0**-6, bandwidth=2.0**14, max_modulation=1)
        assert exact.slot_len * exact.bandwidth * exact.max_modulation == exact.packet_bits
        assert validate(exact) == []
        assert [prof.order for prof in energy_profiles(exact)] == [1, 1]
        MyopicChooser(build_model(exact))
        # a few ulps either side of the defaults' edge, where the product rounds
        below = above = edge = 256 / (5 * 250e3)
        slot_lens = [edge]
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
            slot_lens += [float(below), float(above)]
        verdicts = set()
        for slot_len in slot_lens:
            p = make_params(n_nodes=2, slot_len=slot_len)
            verdicts.add(validate(p) == [])
            if validate(p) == []:
                assert len(energy_profiles(p)) == 2
                MyopicChooser(build_model(p))
        assert verdicts == {True, False}
