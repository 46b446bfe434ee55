"""Tests for the four-wave-mixing engine.

Power-law exponents are measured as log-log finite differences on the
model output, independent of the implementation's normalization.
"""

import numpy as np
import pytest

from loopfwm.fwm import FwmTriplet, conversion_sweep, idler_wavelength
from loopfwm.config import default_config_text, parse_config
from loopfwm.laser import steady_state_roundtrip
from loopfwm.ring import RingCoupling, RingGeometry, solve_coupling

GEOMETRY = RingGeometry.from_fsr(radius_um=10.0, fsr_nm=7.5, wavelength_nm=1555.87)
COUPLING = solve_coupling(GEOMETRY, 1555.87, loaded_q_target=2750.0, through_extinction=0.04)
GAMMA = 300.0


class TestIdlerWavelength:
    def test_reference_triplet(self):
        # Pump on the lasing resonance, signal one FSR to the red.
        assert idler_wavelength(1555.87, 1563.45) == pytest.approx(
            1548.3631448794738, abs=1e-9
        )

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

    @pytest.mark.parametrize("name", ["pump_nm", "signal_nm", "idler_nm"])
    def test_rejects_nonpositive_wavelength(self, name):
        wavelengths = {"pump_nm": 1555.87, "signal_nm": 1563.45, "idler_nm": 1548.39, name: 0.0}
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            FwmTriplet(**wavelengths)


def sweep(axis, values, fixed, gamma=GAMMA, coupling=COUPLING):
    return conversion_sweep(axis, values, fixed, GEOMETRY, coupling, gamma)


class TestIdlerPower:
    def test_doubling_laws(self):
        versus_pump = sweep("pump", np.array([1.0, 2.0]), 0.1)
        assert versus_pump[1] == pytest.approx(4.0 * versus_pump[0], rel=1e-12)
        versus_signal = sweep("signal", np.array([0.1, 0.2]), 1.0)
        assert versus_signal[1] == pytest.approx(2.0 * versus_signal[0], rel=1e-12)
        assert versus_signal[0] == pytest.approx(versus_pump[0], rel=1e-15)

    def test_loglog_slopes_across_four_decades(self):
        pump = np.logspace(-2.0, 2.0, 41)
        idler_vs_pump = sweep("pump", pump, 0.13)
        slopes = np.diff(np.log(idler_vs_pump)) / np.diff(np.log(pump))
        np.testing.assert_allclose(slopes, 2.0, atol=1e-9)

        signal = np.logspace(-4.0, 0.0, 41)
        idler_vs_signal = sweep("signal", signal, 1.87)
        slopes = np.diff(np.log(idler_vs_signal)) / np.diff(np.log(signal))
        np.testing.assert_allclose(slopes, 1.0, atol=1e-9)

    def test_hand_computed_magnitude(self):
        # Lossless couplers with t1 = t2 = 1/2 build the intensity up by
        # B = (1 - 1/4) / (1 - 1/4)**2 = 4/3; the ring multiplies the bare
        # (gamma*L)^2 * Pp^2 * Ps, in watts, by B**4.
        coupling = RingCoupling(through_amplitude=0.5, drop_amplitude=0.5, loss_amplitude=1.0)
        got = sweep("pump", np.array([1.87]), 0.13, gamma=300.0, coupling=coupling)[0]
        length_m = GEOMETRY.circumference_nm * 1e-9
        expected = (300.0 * length_m) ** 2 * (1.87e-3) ** 2 * 0.13e-3 * 1e3 * (4.0 / 3.0) ** 4
        assert got == pytest.approx(expected, rel=1e-12)

    def test_reference_operating_point_nonzero(self):
        assert sweep("pump", np.array([1.87]), 0.13)[0] > 0.0

    def test_overflow_is_infinite(self):
        # (gamma*L)**2 leaves float range; the caller sees inf, not an exception.
        with np.errstate(over="ignore"):
            swept = sweep("pump", np.array([1e-3, 1.0]), 0.1, gamma=1e300)
            fixed_overflows = sweep("signal", np.array([1e-3, 1.0]), 1e300)
        assert np.all(swept == np.inf)
        assert np.all(fixed_overflows == np.inf)

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 0"):
            sweep("pump", np.array([-1.0]), 0.1)
        with pytest.raises(ValueError, match=">= 0"):
            sweep("pump", np.array([1.0]), -0.1)
        with pytest.raises(ValueError, match="gamma_per_w_m"):
            sweep("pump", np.array([1.0]), 0.1, gamma=0.0)


class TestConversionSweep:
    def test_zero_fixed_power_gives_zero_curve(self):
        idler = sweep("pump", np.linspace(0.1, 2.0, 10), 0.0)
        assert np.all(idler == 0.0)

    def test_pump_axis_is_quadratic(self):
        idler = sweep("pump", np.array([0.5, 1.0, 2.0]), 0.13)
        assert idler[1] / idler[0] == pytest.approx(4.0, rel=1e-12)
        assert idler[2] / idler[1] == pytest.approx(4.0, rel=1e-12)

    def test_signal_axis_is_linear(self):
        idler = sweep("signal", np.array([0.05, 0.1, 0.2]), 1.87)
        assert idler[1] / idler[0] == pytest.approx(2.0, rel=1e-12)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            sweep("current", np.array([1.0]), 0.1)

    def test_composition_with_lasing_curve(self):
        # Pump power from the loop laser at each drive current; the
        # hard gain cap flattens the curve above ~135 mA, so the idler
        # grows monotonically (non-strictly) across 150..300 mA and
        # strictly below the cap.
        config = parse_config(default_config_text())
        gain, budget = config.gain, config.budget
        currents = np.arange(100.0, 301.0, 25.0)
        drop, _ = steady_state_roundtrip(gain, budget, currents)
        # The add-port power is the drop-port power before the ring's insertion loss.
        pumps = drop * 10.0 ** (budget.ring_insertion_db / 10.0)
        idler = sweep("pump", pumps, 0.13)
        assert np.all(np.diff(idler) >= -1e-15)
        below_cap = idler[currents < 135.0]
        assert np.all(np.diff(below_cap) > 0.0)


class TestEnhancements:
    def test_all_equal_on_resonance(self):
        # One on-resonance intensity buildup B serves all three waves, so
        # the ring multiplies the bare conversion by B**2 * B * B.
        kappa_sq = 1.0 - COUPLING.through_amplitude**2
        buildup = kappa_sq / (1.0 - COUPLING.roundtrip_factor) ** 2
        length_m = GEOMETRY.circumference_nm * 1e-9
        on_ring = sweep("pump", np.array([0.7]), 0.3)[0]
        bare = (GAMMA * length_m) ** 2 * (0.7e-3) ** 2 * 0.3e-3 * 1e3
        assert on_ring == pytest.approx(bare * buildup**4, rel=1e-12)
