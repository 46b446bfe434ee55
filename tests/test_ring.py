"""Tests for the add-drop ring model.

The closed-form port responses are checked against an independent
brute-force oracle that sums the field over thousands of explicit round
trips, and the exact linewidth expressions are checked against a numeric
half-maximum search on a dense phase grid.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from loopfwm.ring import (
    SPEED_OF_LIGHT_NM_GHZ,
    RingCoupling,
    RingGeometry,
    drop_fwhm_nm,
    drop_spectrum,
    drop_transmission,
    field_enhancement,
    linewidth_ghz,
    roundtrip_phase,
    solve_coupling,
    through_spectrum,
    through_transmission,
)

# Geometry of the reference device: 10 um radius, group index chosen so
# the free spectral range is 7.5 nm at 1555.87 nm.
GEOMETRY = RingGeometry.from_fsr(radius_um=10.0, fsr_nm=7.5, wavelength_nm=1555.87)
RESONANCE_NM = 1555.87


def brute_force_ports(phase: float, coupling: RingCoupling, trips: int = 20000):
    """Sum the multi-round-trip interference series term by term.

    Returns (through, drop, enhancement) intensities.  Independent of the
    closed forms under test: no resonant denominator appears anywhere.
    """
    t1 = coupling.through_amplitude
    t2 = coupling.drop_amplitude
    a = coupling.loss_amplitude
    k1 = math.sqrt(1.0 - t1**2)
    k2 = math.sqrt(1.0 - t2**2)
    per_trip = t1 * t2 * a * np.exp(1j * phase)

    # Circulating field just after the input coupler.
    circulating = 1j * k1 * np.sum(per_trip ** np.arange(trips))
    # Through port: direct transmission plus light re-coupled out after
    # completing n >= 1 full trips.
    through_field = t1 + (1j * k1) ** 2 * t2 * a * np.exp(1j * phase) * np.sum(
        per_trip ** np.arange(trips)
    )
    # Drop port: half a trip of propagation, then the drop coupler.
    drop_field = circulating * math.sqrt(a) * np.exp(1j * phase / 2.0) * 1j * k2

    return abs(through_field) ** 2, abs(drop_field) ** 2, abs(circulating) ** 2


@pytest.fixture(scope="module")
def calibrated() -> RingCoupling:
    return solve_coupling(
        GEOMETRY, RESONANCE_NM, loaded_q_target=2750.0, through_extinction=0.04
    )


class TestPortResponses:
    def test_matches_round_trip_series(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            coupling = RingCoupling(
                through_amplitude=rng.uniform(0.3, 0.99),
                drop_amplitude=rng.uniform(0.3, 0.99),
                loss_amplitude=rng.uniform(0.7, 1.0),
            )
            phase = rng.uniform(-math.pi, math.pi)
            through_ref, drop_ref, enh_ref = brute_force_ports(phase, coupling)
            assert through_transmission(phase, coupling) == pytest.approx(
                through_ref, rel=1e-10
            )
            assert drop_transmission(phase, coupling) == pytest.approx(drop_ref, rel=1e-10)
            assert field_enhancement(phase, coupling) == pytest.approx(enh_ref, rel=1e-10)

    def test_energy_conservation(self):
        rng = np.random.default_rng(11)
        phases = np.linspace(-math.pi, math.pi, 101)
        for _ in range(50):
            coupling = RingCoupling(
                through_amplitude=rng.uniform(0.3, 0.99),
                drop_amplitude=rng.uniform(0.3, 0.99),
                loss_amplitude=rng.uniform(0.5, 0.999),
            )
            total = through_transmission(phases, coupling) + drop_transmission(
                phases, coupling
            )
            assert np.all(total <= 1.0 + 1e-12)

    def test_lossless_ring_conserves_energy_exactly(self):
        coupling = RingCoupling(0.9, 0.8, 1.0)
        phases = np.linspace(-math.pi, math.pi, 101)
        total = through_transmission(phases, coupling) + drop_transmission(phases, coupling)
        np.testing.assert_allclose(total, 1.0, rtol=1e-12)

    def test_critical_coupling_extinguishes_through_port(self):
        # Full destructive interference at resonance requires t1 = t2 * a.
        t2, a = 0.92, 0.97
        coupling = RingCoupling(t2 * a, t2, a)
        assert through_transmission(0.0, coupling) < 1e-28

    def test_symmetry_in_phase(self):
        coupling = RingCoupling(0.91, 0.91, 0.954)
        phases = np.linspace(0.0, math.pi, 64)
        np.testing.assert_allclose(
            through_transmission(phases, coupling),
            through_transmission(-phases, coupling),
            rtol=1e-14,
        )
        np.testing.assert_allclose(
            drop_transmission(phases, coupling),
            drop_transmission(-phases, coupling),
            rtol=1e-14,
        )


class TestGeometry:
    def test_circumference(self):
        assert GEOMETRY.circumference_nm == pytest.approx(2.0 * math.pi * 10.0e3, rel=1e-15)

    def test_fsr_round_trip(self):
        # FSR = lambda**2 / (n_g * L).
        fsr = 1555.87**2 / (GEOMETRY.group_index * GEOMETRY.circumference_nm)
        assert fsr == pytest.approx(7.5, rel=1e-14)

    def test_group_index_from_fsr(self):
        # lambda**2 / (FSR * L) with L = 2*pi*10 um.
        assert GEOMETRY.group_index == pytest.approx(5.136951696849072, rel=1e-13)

    def test_phase_advances_one_fsr_per_2pi(self):
        lam = RESONANCE_NM - RESONANCE_NM**2 / (
            GEOMETRY.group_index * GEOMETRY.circumference_nm
        )
        phase = roundtrip_phase(lam, RESONANCE_NM, GEOMETRY)
        # Adjacent resonance sits within a percent of one FSR step of
        # exactly 2*pi (the 1/lambda grid is not exactly periodic in
        # wavelength).
        assert phase == pytest.approx(2.0 * math.pi, rel=0.01)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError, match="radius_um"):
            RingGeometry(radius_um=0.0, group_index=4.0)
        with pytest.raises(ValueError, match="group_index"):
            RingGeometry(radius_um=10.0, group_index=-1.0)
        with pytest.raises(ValueError, match="fsr_nm"):
            RingGeometry.from_fsr(10.0, fsr_nm=0.0, wavelength_nm=1555.0)
        with pytest.raises(ValueError, match="radius_um"):
            RingGeometry.from_fsr(0.0, fsr_nm=7.5, wavelength_nm=1555.0)
        with pytest.raises(ValueError, match="out of range"):
            RingGeometry.from_fsr(10.0, fsr_nm=7.5, wavelength_nm=1e300)
        with pytest.raises(ValueError, match="underflows"):
            RingGeometry.from_fsr(1e-300, fsr_nm=5e-324, wavelength_nm=1555.0)

    def test_group_index_bounds(self):
        # Physically plausible guided-mode group indices only.
        with pytest.raises(ValueError, match="group_index"):
            RingGeometry(radius_um=10.0, group_index=0.5)
        with pytest.raises(ValueError, match="group_index"):
            RingGeometry(radius_um=10.0, group_index=6.5)
        RingGeometry(radius_um=10.0, group_index=1.0)
        RingGeometry(radius_um=10.0, group_index=6.0)


class TestLinewidth:
    def numeric_fwhm_phase(self, coupling: RingCoupling) -> float:
        """Locate the half-maximum crossing by bracketed root finding."""
        peak = drop_transmission(0.0, coupling)

        def excess(phi):
            return drop_transmission(phi, coupling) - peak / 2.0

        half = brentq(excess, 1e-9, math.pi, xtol=1e-14)
        return 2.0 * half

    def test_fwhm_matches_numeric_search(self, calibrated):
        rng = np.random.default_rng(3)
        couplings = [calibrated] + [
            RingCoupling(
                through_amplitude=rng.uniform(0.6, 0.995),
                drop_amplitude=rng.uniform(0.6, 0.995),
                loss_amplitude=rng.uniform(0.8, 1.0),
            )
            for _ in range(25)
        ]
        for coupling in couplings:
            expected = self.numeric_fwhm_phase(coupling)
            fwhm_nm = drop_fwhm_nm(RESONANCE_NM, GEOMETRY, coupling)
            optical_length = GEOMETRY.group_index * GEOMETRY.circumference_nm
            got = fwhm_nm * 2.0 * math.pi * optical_length / RESONANCE_NM**2
            assert got == pytest.approx(expected, rel=1e-10)

    def test_overdamped_ring_raises(self):
        lossy = RingCoupling(0.4, 0.4, 0.9)
        with pytest.raises(ValueError, match="too small"):
            drop_fwhm_nm(RESONANCE_NM, GEOMETRY, lossy)

    @pytest.mark.parametrize("resonance_nm", [1e-300, 1e300])
    def test_out_of_range_resonance_raises(self, calibrated, resonance_nm):
        # Squaring 1e-300 nm underflows to a zero width; squaring 1e300 nm
        # leaves float range.
        for function in (drop_fwhm_nm, linewidth_ghz):
            with pytest.raises(ValueError, match="no finite linewidth"):
                function(resonance_nm, GEOMETRY, calibrated)

    def test_linewidth_past_float_range_in_ghz_raises(self, calibrated):
        # A 1e-300 um ring has a finite 7e300 nm linewidth, which is past
        # float range in GHz.
        tiny = RingGeometry(radius_um=1e-300, group_index=4.0)
        assert math.isfinite(drop_fwhm_nm(RESONANCE_NM, tiny, calibrated))
        with pytest.raises(ValueError, match="no finite linewidth .* GHz"):
            linewidth_ghz(RESONANCE_NM, tiny, calibrated)

    def test_linewidth_in_frequency_units(self, calibrated):
        fwhm_nm = drop_fwhm_nm(RESONANCE_NM, GEOMETRY, calibrated)
        expected = SPEED_OF_LIGHT_NM_GHZ * fwhm_nm / RESONANCE_NM**2
        assert linewidth_ghz(RESONANCE_NM, GEOMETRY, calibrated) == pytest.approx(expected)
        # Loaded Q of 2750 at 1555.87 nm corresponds to about 70 GHz.
        assert linewidth_ghz(RESONANCE_NM, GEOMETRY, calibrated) == pytest.approx(
            70.06719023615551, rel=1e-10
        )


class TestCalibration:
    def test_reproduces_both_targets(self, calibrated):
        assert RESONANCE_NM / drop_fwhm_nm(RESONANCE_NM, GEOMETRY, calibrated) == pytest.approx(
            2750.0, rel=1e-12
        )
        assert through_transmission(0.0, calibrated) == pytest.approx(0.04, abs=1e-12)

    def test_calibrated_values(self, calibrated):
        # Frozen solution of the closed-form calibration for the
        # reference device (Q = 2750, extinction 0.04).
        assert calibrated.through_amplitude == pytest.approx(0.9100072559579606, rel=1e-12)
        assert calibrated.drop_amplitude == pytest.approx(0.9100072559579606, rel=1e-12)
        assert calibrated.loss_amplitude == pytest.approx(0.9538177467155318, rel=1e-12)
        assert calibrated.roundtrip_factor == pytest.approx(0.7898690720732289, rel=1e-12)

    def test_round_trip_over_target_grid(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            q_target = rng.uniform(1200.0, 50000.0)
            extinction = rng.uniform(0.0, 0.5)
            coupling = solve_coupling(GEOMETRY, RESONANCE_NM, q_target, extinction)
            assert RESONANCE_NM / drop_fwhm_nm(RESONANCE_NM, GEOMETRY, coupling) == pytest.approx(
                q_target, rel=1e-9
            )
            assert through_transmission(0.0, coupling) == pytest.approx(
                extinction, abs=1e-9
            )

    def test_rejects_unphysical_targets(self):
        with pytest.raises(ValueError, match="loaded_q_target"):
            solve_coupling(GEOMETRY, RESONANCE_NM, -100.0, 0.04)
        with pytest.raises(ValueError, match="through_extinction"):
            solve_coupling(GEOMETRY, RESONANCE_NM, 2750.0, 1.5)
        with pytest.raises(ValueError, match="too wide"):
            solve_coupling(GEOMETRY, RESONANCE_NM, 150.0, 0.04)

    def test_rejects_linewidth_at_the_ring_limit(self):
        # A linewidth a hair under one free spectral range: cos of its half
        # phase rounds to -1, so the round-trip factor is the limit itself.
        lowest_q = GEOMETRY.group_index * GEOMETRY.circumference_nm / RESONANCE_NM
        with pytest.raises(ValueError, match=r"round-trip factor 0\.171573"):
            solve_coupling(GEOMETRY, RESONANCE_NM, lowest_q * (1.0 + 1e-12), 0.04)

    def test_zero_extinction_over_a_q_sweep(self):
        # At zero extinction the loss is 1 and the through port dark on
        # resonance; at a tiny one r/t**2 can round to just above 1, and is
        # capped at 1.
        solved = 0
        for q_target in np.geomspace(1e2, 1e6, 2000):
            try:
                coupling = solve_coupling(GEOMETRY, RESONANCE_NM, q_target, 0.0)
            except ValueError as exc:
                # Below a Q of about 207 the line is wider than the ring holds.
                assert "too wide" in str(exc)
                continue
            solved += 1
            assert coupling.loss_amplitude == 1.0
            assert through_transmission(0.0, coupling) == 0.0
            tiny = solve_coupling(GEOMETRY, RESONANCE_NM, q_target, 1e-40)
            assert tiny.loss_amplitude <= 1.0
        assert solved == 1841


class TestSpectra:
    def test_drop_peak_at_anchor(self, calibrated):
        wavelengths = np.linspace(RESONANCE_NM - 2.0, RESONANCE_NM + 2.0, 4001)
        spectrum = drop_spectrum(wavelengths, RESONANCE_NM, GEOMETRY, calibrated)
        assert wavelengths[np.argmax(spectrum)] == pytest.approx(RESONANCE_NM, abs=1e-3)

    def test_through_dip_at_anchor(self, calibrated):
        wavelengths = np.linspace(RESONANCE_NM - 2.0, RESONANCE_NM + 2.0, 4001)
        spectrum = through_spectrum(wavelengths, RESONANCE_NM, GEOMETRY, calibrated)
        assert wavelengths[np.argmin(spectrum)] == pytest.approx(RESONANCE_NM, abs=1e-3)

    def test_enhancement_peak_value(self, calibrated):
        kappa_sq = 1.0 - calibrated.through_amplitude**2
        expected = kappa_sq / (1.0 - calibrated.roundtrip_factor) ** 2
        assert field_enhancement(0.0, calibrated) == pytest.approx(expected, rel=1e-12)

    def test_coupling_validation(self):
        with pytest.raises(ValueError, match="through_amplitude"):
            RingCoupling(1.2, 0.9, 0.95)
        with pytest.raises(ValueError, match="drop_amplitude"):
            RingCoupling(0.9, 0.0, 0.95)
        with pytest.raises(ValueError, match="loss_amplitude"):
            RingCoupling(0.9, 0.9, 1.01)
