"""Tests for the four-wave-mixing engine.

Power-law exponents are measured as log-log finite differences on the
model output, independent of the implementation's normalization.
"""

import numpy as np
import pytest

from loopfwm.fwm import (
    FwmTriplet,
    conversion_sweep,
    idler_power_mw,
    idler_power_on_ring,
    idler_wavelength,
)
from loopfwm.config import default_config_text, parse_config
from loopfwm.laser import steady_state_roundtrip
from loopfwm.ring import RingGeometry, solve_coupling

GEOMETRY = RingGeometry.from_fsr(radius_um=10.0, fsr_nm=7.5, wavelength_nm=1555.87)
COUPLING = solve_coupling(GEOMETRY, 1555.87, loaded_q_target=2750.0, through_extinction=0.04)
GAMMA = 300.0


class TestIdlerWavelength:
    def test_reference_triplet(self):
        # Pump on the lasing resonance, signal one FSR to the red.
        assert idler_wavelength(1555.87, 1563.45) == pytest.approx(
            1548.3631448794738, abs=1e-9
        )

    def test_close_to_measured_idler(self):
        assert abs(idler_wavelength(1555.87, 1563.45) - 1548.39) < 0.05

    def test_degenerate_case(self):
        assert idler_wavelength(1555.87, 1555.87) == pytest.approx(1555.87, rel=1e-14)

    def test_involution(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            pump = rng.uniform(1500.0, 1600.0)
            signal = rng.uniform(0.6 * pump, 1.8 * pump)
            idler = idler_wavelength(pump, signal)
            assert idler_wavelength(pump, idler) == pytest.approx(signal, abs=1e-9)

    def test_rejects_unreachable_idler(self):
        with pytest.raises(ValueError, match="half the pump"):
            idler_wavelength(1555.87, 700.0)
        with pytest.raises(ValueError, match="positive"):
            idler_wavelength(-1.0, 1563.45)


class TestTriplet:
    def test_generated_residual_is_machine_zero(self):
        triplet = FwmTriplet.from_pump_signal(1555.87, 1563.45)
        assert abs(triplet.energy_residual_per_nm) < 1e-15

    def test_measured_triplet_within_tolerance(self):
        triplet = FwmTriplet(pump_nm=1555.87, signal_nm=1563.45, idler_nm=1548.39)
        assert abs(triplet.energy_residual_per_nm) < 2.5e-7

    def test_rejects_violating_triplet(self):
        with pytest.raises(ValueError, match="energy conservation"):
            FwmTriplet(pump_nm=1555.87, signal_nm=1563.45, idler_nm=1549.0)

    def test_rejects_repeated_resonance(self):
        with pytest.raises(ValueError, match="distinct"):
            FwmTriplet(pump_nm=1555.87, signal_nm=1555.87, idler_nm=1555.87)


class TestIdlerPower:
    def test_doubling_laws(self):
        base = idler_power_mw(1.0, 0.1, GAMMA, 6.3e-5)
        assert idler_power_mw(2.0, 0.1, GAMMA, 6.3e-5) == pytest.approx(
            4.0 * base, rel=1e-12
        )
        assert idler_power_mw(1.0, 0.2, GAMMA, 6.3e-5) == pytest.approx(
            2.0 * base, rel=1e-12
        )

    def test_loglog_slopes_across_four_decades(self):
        pump = np.logspace(-2.0, 2.0, 41)
        idler_vs_pump = idler_power_mw(pump, 0.13, GAMMA, 6.3e-5)
        slopes = np.diff(np.log(idler_vs_pump)) / np.diff(np.log(pump))
        np.testing.assert_allclose(slopes, 2.0, atol=1e-9)

        signal = np.logspace(-4.0, 0.0, 41)
        idler_vs_signal = idler_power_mw(1.87, signal, GAMMA, 6.3e-5)
        slopes = np.diff(np.log(idler_vs_signal)) / np.diff(np.log(signal))
        np.testing.assert_allclose(slopes, 1.0, atol=1e-9)

    def test_hand_computed_magnitude(self):
        # (gamma*L)^2 * Pp^2 * Ps in watts, converted back to mW.
        got = idler_power_mw(1.87, 0.13, 300.0, 2.0e-5)
        expected = (300.0 * 2.0e-5) ** 2 * (1.87e-3) ** 2 * 0.13e-3 * 1e3
        assert got == pytest.approx(expected, rel=1e-12)

    def test_signal_idler_enhancement_symmetry(self):
        a = idler_power_mw(1.0, 0.1, GAMMA, 6.3e-5, 3.9, 2.0, 5.0)
        b = idler_power_mw(1.0, 0.1, GAMMA, 6.3e-5, 3.9, 5.0, 2.0)
        assert a == pytest.approx(b, rel=1e-14)

    def test_pump_enhancement_enters_squared(self):
        base = idler_power_mw(1.0, 0.1, GAMMA, 6.3e-5, 1.0, 1.0, 1.0)
        boosted = idler_power_mw(1.0, 0.1, GAMMA, 6.3e-5, 3.0, 1.0, 1.0)
        assert boosted == pytest.approx(9.0 * base, rel=1e-12)

    def test_reference_operating_point_nonzero(self):
        triplet = FwmTriplet.from_pump_signal(1555.87, 1563.45)
        power = idler_power_on_ring(triplet, 1.87, 0.13, GEOMETRY, COUPLING, GAMMA)
        assert power > 0.0

    def test_overflow_is_infinite(self):
        # (gamma*L)**2 leaves float range; the caller sees inf, not an exception.
        with np.errstate(over="ignore"):
            assert idler_power_mw(1.0, 0.1, 1e300, 6.3e-5) == np.inf
            swept = idler_power_mw(np.array([1e-3, 1.0]), 0.1, 1e300, 6.3e-5)
        assert np.all(swept == np.inf)

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 0"):
            idler_power_mw(-1.0, 0.1, GAMMA, 6.3e-5)
        with pytest.raises(ValueError, match="gamma_per_w_m"):
            idler_power_mw(1.0, 0.1, 0.0, 6.3e-5)
        with pytest.raises(ValueError, match="pump_enhancement"):
            idler_power_mw(1.0, 0.1, GAMMA, 6.3e-5, pump_enhancement=-1.0)


class TestConversionSweep:
    TRIPLET = FwmTriplet.from_pump_signal(1555.87, 1563.45)

    def test_zero_fixed_power_gives_zero_curve(self):
        values = np.linspace(0.1, 2.0, 10)
        idler = conversion_sweep(
            "pump", values, 0.0, self.TRIPLET, GEOMETRY, COUPLING, GAMMA
        )
        assert np.all(idler == 0.0)

    def test_pump_axis_is_quadratic(self):
        values = np.array([0.5, 1.0, 2.0])
        idler = conversion_sweep(
            "pump", values, 0.13, self.TRIPLET, GEOMETRY, COUPLING, GAMMA
        )
        assert idler[1] / idler[0] == pytest.approx(4.0, rel=1e-12)
        assert idler[2] / idler[1] == pytest.approx(4.0, rel=1e-12)

    def test_signal_axis_is_linear(self):
        values = np.array([0.05, 0.1, 0.2])
        idler = conversion_sweep(
            "signal", values, 1.87, self.TRIPLET, GEOMETRY, COUPLING, GAMMA
        )
        assert idler[1] / idler[0] == pytest.approx(2.0, rel=1e-12)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            conversion_sweep(
                "current", np.array([1.0]), 0.1, self.TRIPLET, GEOMETRY, COUPLING, GAMMA
            )

    def test_composition_with_lasing_curve(self):
        # Pump power from the loop laser at each drive current; the
        # hard gain cap flattens the curve above ~135 mA, so the idler
        # grows monotonically (non-strictly) across 150..300 mA and
        # strictly below the cap.
        config = parse_config(default_config_text())
        gain, budget = config.gain, config.budget
        currents = np.arange(100.0, 301.0, 25.0)
        pumps = []
        for current in currents:
            point = steady_state_roundtrip(gain, budget, current)
            pumps.append(
                point.circulating_power_mw * 10.0 ** (-budget.amplifier_to_ring_db / 10.0)
            )
        idler = idler_power_on_ring(
            self.TRIPLET, np.asarray(pumps), 0.13, GEOMETRY, COUPLING, GAMMA
        )
        assert np.all(np.diff(idler) >= -1e-15)
        below_cap = idler[currents < 135.0]
        assert np.all(np.diff(below_cap) > 0.0)


class TestEnhancements:
    def test_all_equal_on_resonance(self):
        # One on-resonance intensity buildup B serves all three waves, so
        # the ring multiplies the bare conversion by B**2 * B * B.
        kappa_sq = 1.0 - COUPLING.through_amplitude**2
        buildup = kappa_sq / (1.0 - COUPLING.roundtrip_factor) ** 2
        triplet = FwmTriplet.from_pump_signal(1555.87, 1563.45)
        length_m = GEOMETRY.circumference_nm * 1e-9
        on_ring = idler_power_on_ring(triplet, 0.7, 0.3, GEOMETRY, COUPLING, GAMMA)
        bare = idler_power_mw(0.7, 0.3, GAMMA, length_m)
        assert on_ring == pytest.approx(bare * buildup**4, rel=1e-12)
        explicit = idler_power_mw(0.7, 0.3, GAMMA, length_m, buildup, buildup, buildup)
        assert on_ring == pytest.approx(explicit, rel=1e-12)
