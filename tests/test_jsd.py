"""Tests for joint spectral analysis and Schmidt decomposition.

Purity is cross-checked against a trace-formula oracle that never calls
an SVD, and the scan simulation is checked for mass conservation and
against synthetic ridges of known slope.
"""

import math

import numpy as np
import pytest

from loopfwm.fwm import FwmTriplet, idler_wavelength
from loopfwm.jsd import (
    JointAmplitude,
    RidgeFit,
    SpectralAxis,
    SpectralGrid,
    detuning_ghz,
    jsa,
    resonance_lineshape,
    ridge_fit,
    schmidt,
    simulate_jsd_scan,
    two_photon_pump_lineshape,
)

GAMMA_GHZ = 70.0
SQUARE_AXIS = SpectralAxis(center_nm=1555.0, span_nm=2.72, step_pm=10.0)
SQUARE_GRID = SpectralGrid(signal=SQUARE_AXIS, idler=SQUARE_AXIS)
TRIPLET = FwmTriplet.from_pump_signal(1555.87, 1563.45)


def purity_from_traces(matrix: np.ndarray) -> float:
    """Tr[(A^H A)^2] / Tr[A^H A]^2 — purity without any SVD."""
    gram = matrix.conj().T @ matrix
    trace = np.trace(gram).real
    return float(np.trace(gram @ gram).real / trace**2)


class TestLineshapes:
    def test_pump_peak_is_real_unit(self):
        value = two_photon_pump_lineshape(0.0, 3.5)
        assert value.real == 1.0
        assert value.imag == 0.0

    def test_pump_tail_below_two_percent(self):
        delta = 3.5
        tail = abs(two_photon_pump_lineshape(10.0 * delta, delta)) ** 2
        assert tail < 0.02

    def test_pump_intensity_fwhm_is_twice_linewidth(self):
        delta = 3.5
        omega = np.linspace(-30.0, 30.0, 60001)
        intensity = np.abs(two_photon_pump_lineshape(omega, delta)) ** 2
        above = omega[intensity >= 0.5]
        fwhm = above[-1] - above[0]
        assert fwhm == pytest.approx(2.0 * delta, abs=2 * (omega[1] - omega[0]))

    def test_resonance_intensity_fwhm(self):
        omega = np.linspace(-300.0, 300.0, 600001)
        intensity = np.abs(resonance_lineshape(omega, GAMMA_GHZ)) ** 2
        above = omega[intensity >= 0.5]
        assert above[-1] - above[0] == pytest.approx(GAMMA_GHZ, abs=0.01)

    def test_rejects_nonpositive_widths(self):
        with pytest.raises(ValueError, match="pump_linewidth_ghz"):
            two_photon_pump_lineshape(0.0, 0.0)
        with pytest.raises(ValueError, match="linewidth_ghz"):
            resonance_lineshape(0.0, -1.0)


class TestGridTypes:
    def test_axis_size_and_center(self):
        assert SQUARE_AXIS.size == 273
        wavelengths = SQUARE_AXIS.wavelengths_nm()
        assert wavelengths[136] == pytest.approx(1555.0, abs=1e-12)

    def test_axis_from_range(self):
        axis = SpectralAxis.from_range(1560.0, 1566.0, 10.0)
        assert axis.center_nm == 1563.0
        assert axis.size == 601

    def test_rejects_short_axis(self):
        with pytest.raises(ValueError, match="at least 16 points"):
            SpectralAxis(center_nm=1555.0, span_nm=0.1, step_pm=10.0)

    def test_detuning_is_exact_frequency_difference(self):
        got = detuning_ghz(1556.0, 1555.0)
        expected = 2.99792458e8 / 1556.0 - 2.99792458e8 / 1555.0
        assert got == pytest.approx(expected, rel=1e-14)


class TestJsa:
    def test_flat_pump_factorizes(self):
        joint = jsa(SQUARE_GRID, 100.0 * GAMMA_GHZ, GAMMA_GHZ, GAMMA_GHZ)
        assert schmidt(joint).purity > 0.99

    def test_transpose_symmetry(self):
        joint = jsa(SQUARE_GRID, 0.1 * GAMMA_GHZ, GAMMA_GHZ, GAMMA_GHZ)
        intensity = np.abs(joint.matrix) ** 2
        np.testing.assert_allclose(intensity, intensity.T, atol=1e-12 * intensity.max())

    def test_swapping_linewidths_transposes(self):
        axis = SpectralAxis(center_nm=1555.0, span_nm=5.44, step_pm=20.0)
        grid = SpectralGrid(signal=axis, idler=axis)
        a = jsa(grid, GAMMA_GHZ, GAMMA_GHZ, 2.0 * GAMMA_GHZ)
        b = jsa(grid, GAMMA_GHZ, 2.0 * GAMMA_GHZ, GAMMA_GHZ)
        np.testing.assert_allclose(np.abs(a.matrix), np.abs(b.matrix).T, rtol=1e-12)

    def test_narrow_pump_ridge_on_antidiagonal(self):
        joint = jsa(SQUARE_GRID, 0.01 * GAMMA_GHZ, GAMMA_GHZ, GAMMA_GHZ)
        intensity = np.abs(joint.matrix) ** 2
        omega_s = detuning_ghz(SQUARE_AXIS.wavelengths_nm(), 1555.0)
        omega_i = detuning_ghz(SQUARE_AXIS.wavelengths_nm(), 1555.0)
        for row in range(40, 233, 16):
            expected = int(np.argmin(np.abs(omega_i + omega_s[row])))
            assert abs(int(np.argmax(intensity[row])) - expected) <= 1

    def test_rejects_narrow_span(self):
        narrow = SpectralAxis(center_nm=1555.0, span_nm=0.5, step_pm=10.0)
        with pytest.raises(ValueError, match="four"):
            jsa(SpectralGrid(signal=narrow, idler=narrow), 3.5, GAMMA_GHZ, GAMMA_GHZ)

    def test_rejects_zero_matrix(self):
        with pytest.raises(ValueError, match="zero"):
            JointAmplitude(np.zeros((4, 4), dtype=complex))


class TestSchmidt:
    def random_joint(self, matrix: np.ndarray) -> JointAmplitude:
        return JointAmplitude(matrix)

    def test_rank_one_is_pure(self):
        rng = np.random.default_rng(37)
        f = rng.normal(size=32) + 1j * rng.normal(size=32)
        g = rng.normal(size=48) + 1j * rng.normal(size=48)
        result = schmidt(self.random_joint(np.outer(f, g)))
        assert result.purity == pytest.approx(1.0, abs=1e-10)
        assert result.schmidt_number == pytest.approx(1.0, abs=1e-10)

    def test_equal_two_mode_purity_half(self):
        n = 32
        f1 = np.zeros(n, dtype=complex)
        f2 = np.zeros(n, dtype=complex)
        f1[0] = 1.0
        f2[1] = 1.0
        g1 = np.zeros(n, dtype=complex)
        g2 = np.zeros(n, dtype=complex)
        g1[2] = 1.0
        g2[3] = 1.0
        matrix = np.outer(f1, g1) + np.outer(f2, g2)
        result = schmidt(self.random_joint(matrix))
        assert result.purity == pytest.approx(0.5, abs=1e-10)
        assert result.schmidt_number == pytest.approx(2.0, abs=1e-9)

    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            matrix = rng.normal(size=(40, 56)) + 1j * rng.normal(size=(40, 56))
            result = schmidt(self.random_joint(matrix))
            assert result.purity == pytest.approx(purity_from_traces(matrix), abs=1e-12)

    def test_invariants(self):
        joint = jsa(SQUARE_GRID, 0.5 * GAMMA_GHZ, GAMMA_GHZ, GAMMA_GHZ)
        result = schmidt(joint)
        assert 0.0 < result.purity <= 1.0
        assert result.purity * result.schmidt_number == pytest.approx(1.0, abs=1e-12)
        assert result.coefficients.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(result.singular_values) <= 0.0)

    def test_purity_monotone_in_pump_linewidth(self):
        ratios = (100.0, 10.0, 1.0, 0.1, 0.01)
        purities = [
            schmidt(jsa(SQUARE_GRID, r * GAMMA_GHZ, GAMMA_GHZ, GAMMA_GHZ)).purity
            for r in ratios
        ]
        assert all(a > b for a, b in zip(purities, purities[1:]))

    def test_golden_purity_values(self):
        # Frozen from an independent trace-formula computation of the
        # same sampled amplitude on this exact grid.
        expected = {
            10.0: 0.999926656123,
            1.0: 0.933772550453,
            0.1: 0.362612272922,
            0.01: 0.048648363200,
        }
        for ratio, value in expected.items():
            got = schmidt(jsa(SQUARE_GRID, ratio * GAMMA_GHZ, GAMMA_GHZ, GAMMA_GHZ)).purity
            assert got == pytest.approx(value, abs=1e-9)

    def test_grid_refinement_stability(self):
        fine_axis = SpectralAxis(center_nm=1555.0, span_nm=2.72, step_pm=5.0)
        fine = SpectralGrid(signal=fine_axis, idler=fine_axis)
        delta = 0.05 * GAMMA_GHZ
        coarse_purity = schmidt(jsa(SQUARE_GRID, delta, GAMMA_GHZ, GAMMA_GHZ)).purity
        fine_purity = schmidt(jsa(fine, delta, GAMMA_GHZ, GAMMA_GHZ)).purity
        assert abs(fine_purity - coarse_purity) < 1e-3


class TestRidgeFit:
    def test_exact_antidiagonal_delta_ridge(self):
        n = 64
        signal = 1563.0 + 0.01 * np.arange(n)
        idler = 1548.0 + 0.01 * np.arange(n)
        matrix = np.fliplr(np.eye(n))
        fit = ridge_fit(matrix, signal, idler)
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)
        assert fit.rms_width_nm < 1e-9

    def test_recovers_synthetic_slope(self):
        rng = np.random.default_rng(3)
        signal = np.linspace(1561.0, 1565.0, 101)
        idler = np.linspace(1546.0, 1551.0, 121)
        slope, intercept = -0.98, 1548.5 + 0.98 * 1563.0
        matrix = np.zeros((signal.size, idler.size))
        for i, s in enumerate(signal):
            center = intercept + slope * s
            matrix[i] = np.exp(-0.5 * ((idler - center) / 0.05) ** 2)
        fit = ridge_fit(matrix, signal, idler)
        assert fit.slope == pytest.approx(slope, abs=1e-3)
        assert fit.intercept_nm == pytest.approx(intercept, abs=2.0)

    def test_width_reflects_scatter(self):
        signal = np.linspace(1561.0, 1565.0, 51)
        idler = np.linspace(1546.0, 1551.0, 61)
        narrow = np.zeros((51, 61))
        wide = np.zeros((51, 61))
        for i, s in enumerate(signal):
            center = 1548.5 - 1.0 * (s - 1563.0)
            narrow[i] = np.exp(-0.5 * ((idler - center) / 0.03) ** 2)
            wide[i] = np.exp(-0.5 * ((idler - center) / 0.12) ** 2)
        assert (
            ridge_fit(wide, signal, idler).rms_width_nm
            > ridge_fit(narrow, signal, idler).rms_width_nm
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            ridge_fit(np.ones((3, 4)), np.arange(3.0), np.arange(5.0))
        with pytest.raises(ValueError, match="nonnegative"):
            ridge_fit(-np.ones((3, 4)), np.arange(3.0), np.arange(4.0))
        with pytest.raises(ValueError, match="zero"):
            ridge_fit(np.zeros((3, 4)), np.arange(3.0), np.arange(4.0))


class TestScanSimulation:
    SCAN = SpectralGrid(
        signal=SpectralAxis.from_range(1561.5, 1565.5, 20.0),
        idler=SpectralAxis.from_range(1546.0, 1551.0, 20.0),
    )

    def test_nonnegative(self):
        matrix = simulate_jsd_scan(self.SCAN, TRIPLET)
        assert np.all(matrix >= 0.0)

    def test_instrument_conserves_row_mass(self):
        sharp = simulate_jsd_scan(self.SCAN, TRIPLET, resolution_fwhm_pm=0.0)
        blurred = simulate_jsd_scan(self.SCAN, TRIPLET, resolution_fwhm_pm=67.0)
        np.testing.assert_allclose(
            blurred.sum(axis=1), sharp.sum(axis=1), rtol=1e-9
        )

    def test_ridge_slope_near_energy_conservation(self):
        matrix = simulate_jsd_scan(self.SCAN, TRIPLET, resolution_fwhm_pm=67.0)
        fit = ridge_fit(
            matrix,
            self.SCAN.signal.wavelengths_nm(),
            self.SCAN.idler.wavelengths_nm(),
        )
        expected = -((TRIPLET.idler_nm / TRIPLET.signal_nm) ** 2)
        assert fit.slope == pytest.approx(expected, abs=0.01)

    def test_delta_limit_collapses_columns(self):
        matrix = simulate_jsd_scan(
            self.SCAN,
            TRIPLET,
            pump_linewidth_ghz=0.01,
            resolution_fwhm_pm=0.0,
        )
        idler_axis = self.SCAN.idler.wavelengths_nm()
        signal_axis = self.SCAN.signal.wavelengths_nm()
        step = idler_axis[1] - idler_axis[0]
        for row in range(0, signal_axis.size, 20):
            spectrum = matrix[row]
            peak = int(np.argmax(spectrum))
            assert spectrum[peak] / spectrum.sum() > 0.9
            expected_nm = idler_wavelength(TRIPLET.pump_nm, signal_axis[row])
            assert abs(idler_axis[peak] - expected_nm) <= step

    def test_row_mass_follows_signal_resonance(self):
        # With a pump much broader than the resonances, the scanned row
        # mass traces the signal resonance intensity profile.
        scan = SpectralGrid(
            signal=SpectralAxis(center_nm=1563.45, span_nm=3.0, step_pm=20.0),
            idler=SpectralAxis(center_nm=TRIPLET.idler_nm, span_nm=6.0, step_pm=20.0),
        )
        matrix = simulate_jsd_scan(
            scan,
            TRIPLET,
            pump_linewidth_ghz=100.0 * GAMMA_GHZ,
            signal_linewidth_ghz=GAMMA_GHZ,
            idler_linewidth_ghz=GAMMA_GHZ,
            resolution_fwhm_pm=0.0,
        )
        mass = matrix.sum(axis=1)
        omega_s = detuning_ghz(scan.signal.wavelengths_nm(), 1563.45)
        lorentzian = np.abs(resonance_lineshape(omega_s, GAMMA_GHZ)) ** 2
        np.testing.assert_allclose(
            mass / mass.max(), lorentzian / lorentzian.max(), atol=0.02
        )

    def test_wider_resolution_widens_ridge(self):
        narrow = simulate_jsd_scan(self.SCAN, TRIPLET, resolution_fwhm_pm=67.0)
        wide = simulate_jsd_scan(self.SCAN, TRIPLET, resolution_fwhm_pm=134.0)
        axes = (
            self.SCAN.signal.wavelengths_nm(),
            self.SCAN.idler.wavelengths_nm(),
        )
        assert (
            ridge_fit(wide, *axes).rms_width_nm > ridge_fit(narrow, *axes).rms_width_nm
        )

    def test_rejects_uncovered_resonance(self):
        off_window = SpectralGrid(
            signal=SpectralAxis.from_range(1570.0, 1574.0, 20.0),
            idler=self.SCAN.idler,
        )
        with pytest.raises(ValueError, match="does not cover"):
            simulate_jsd_scan(off_window, TRIPLET)

    def test_rejects_negative_resolution(self):
        with pytest.raises(ValueError, match="resolution_fwhm_pm"):
            simulate_jsd_scan(self.SCAN, TRIPLET, resolution_fwhm_pm=-1.0)
