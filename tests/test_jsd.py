"""Tests for joint spectral analysis and Schmidt decomposition.

Purity is cross-checked against a trace-formula oracle that never calls
an SVD, and the closed-form purity over the scan windows against a
Gauss-Legendre Nystrom oracle and the narrow-pump limit.  The scan simulation is checked for mass conservation, against
synthetic ridges of known slope, and against a brute-force cell average
taken in wavelength; its closed-form cell mean is checked against
elementary integrals.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopfwm.config import default_config_text, parse_config
from loopfwm.fwm import FwmTriplet, idler_wavelength
from loopfwm.instrument import MAX_GRID_POINTS
import loopfwm.jsd as jsd_module
from loopfwm.jsd import (
    _idler_cell_mean,
    JointAmplitude,
    RidgeFit,
    SpectralAxis,
    SpectralGrid,
    detuning_ghz,
    jsa,
    resonance_lineshape,
    ridge_fit,
    schmidt,
    schmidt_purity,
    simulate_jsd_scan,
    two_photon_pump_lineshape,
)
from loopfwm.ring import SPEED_OF_LIGHT_NM_GHZ

CONFIG = parse_config(default_config_text())
GAMMA_GHZ = 70.0
SQUARE_AXIS = SpectralAxis(center_nm=1555.0, span_nm=2.72, step_pm=10.0)
SQUARE_GRID = SpectralGrid(signal=SQUARE_AXIS, idler=SQUARE_AXIS)
# Signal, idler and pump resonances of jsa on the square grids, all at their
# 1555 nm center, so the pump conserves energy exactly.
AT_CENTER = (1555.0, 1555.0, 1555.0)
TRIPLET = FwmTriplet.from_pump_signal(1555.87, 1563.45)


def scan(grid: SpectralGrid, **settings) -> np.ndarray:
    """``simulate_jsd_scan`` of ``TRIPLET`` with the reference pump linewidth
    and spectrometer resolution and 70 GHz resonances, unless overridden."""
    defaults = dict(
        pump_linewidth_ghz=CONFIG.pump_linewidth_ghz,
        signal_linewidth_ghz=GAMMA_GHZ,
        idler_linewidth_ghz=GAMMA_GHZ,
        resolution_fwhm_pm=CONFIG.jsd_resolution_pm,
    )
    return simulate_jsd_scan(grid, TRIPLET, **{**defaults, **settings})


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

    @pytest.mark.parametrize("start_nm", [-1.0, 0.0, 1e-300])
    def test_rejects_low_edge_at_or_below_zero(self, start_nm):
        # A 1e-300 nm start rounds the low edge of a 6 nm axis to exactly 0.
        with pytest.raises(ValueError, match="low edge"):
            SpectralAxis.from_range(start_nm, 6.0, 100.0)
        with pytest.raises(ValueError, match="low edge"):
            SpectralAxis(center_nm=1.0, span_nm=3.0, step_pm=10.0)

    def test_joint_grid_cell_cap(self):
        # Axes of 4,001 and 2,500 points: 10,002,500 cells, one grid past
        # MAX_GRID_POINTS.  No axis or joint array is ever allocated.
        wide = SpectralAxis(center_nm=1555.0, span_nm=40.0, step_pm=10.0)
        narrow = SpectralAxis(center_nm=1555.0, span_nm=24.99, step_pm=10.0)
        assert (wide.size, narrow.size) == (4001, 2500)
        with pytest.raises(ValueError, match="10,002,500 cells"):
            SpectralGrid(signal=wide, idler=narrow)
        smaller = SpectralAxis(center_nm=1555.0, span_nm=24.98, step_pm=10.0)
        assert wide.size * smaller.size <= MAX_GRID_POINTS
        SpectralGrid(signal=wide, idler=smaller)

    def test_detuning_is_exact_frequency_difference(self):
        got = detuning_ghz(1556.0, 1555.0)
        expected = 2.99792458e8 / 1556.0 - 2.99792458e8 / 1555.0
        assert got == pytest.approx(expected, rel=1e-14)


class TestJsa:
    def test_flat_pump_factorizes(self):
        joint = jsa(SQUARE_GRID, 100.0 * GAMMA_GHZ, GAMMA_GHZ, GAMMA_GHZ, *AT_CENTER)
        assert schmidt(joint).purity > 0.99

    def test_transpose_symmetry(self):
        joint = jsa(SQUARE_GRID, 0.1 * GAMMA_GHZ, GAMMA_GHZ, GAMMA_GHZ, *AT_CENTER)
        intensity = np.abs(joint.matrix) ** 2
        np.testing.assert_allclose(intensity, intensity.T, atol=1e-12 * intensity.max())

    def test_swapping_linewidths_transposes(self):
        axis = SpectralAxis(center_nm=1555.0, span_nm=5.44, step_pm=20.0)
        grid = SpectralGrid(signal=axis, idler=axis)
        a = jsa(grid, GAMMA_GHZ, GAMMA_GHZ, 2.0 * GAMMA_GHZ, *AT_CENTER)
        b = jsa(grid, GAMMA_GHZ, 2.0 * GAMMA_GHZ, GAMMA_GHZ, *AT_CENTER)
        np.testing.assert_allclose(np.abs(a.matrix), np.abs(b.matrix).T, rtol=1e-12)

    def test_narrow_pump_ridge_on_antidiagonal(self):
        joint = jsa(SQUARE_GRID, 0.01 * GAMMA_GHZ, GAMMA_GHZ, GAMMA_GHZ, *AT_CENTER)
        intensity = np.abs(joint.matrix) ** 2
        omega_s = detuning_ghz(SQUARE_AXIS.wavelengths_nm(), 1555.0)
        omega_i = detuning_ghz(SQUARE_AXIS.wavelengths_nm(), 1555.0)
        for row in range(40, 233, 16):
            expected = int(np.argmin(np.abs(omega_i + omega_s[row])))
            assert abs(int(np.argmax(intensity[row])) - expected) <= 1

    def test_rejects_narrow_span(self):
        narrow = SpectralAxis(center_nm=1555.0, span_nm=0.5, step_pm=10.0)
        with pytest.raises(ValueError, match="four"):
            jsa(SpectralGrid(signal=narrow, idler=narrow), 3.5, GAMMA_GHZ, GAMMA_GHZ, *AT_CENTER)

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
        joint = jsa(SQUARE_GRID, 0.5 * GAMMA_GHZ, GAMMA_GHZ, GAMMA_GHZ, *AT_CENTER)
        result = schmidt(joint)
        assert 0.0 < result.purity <= 1.0
        assert result.purity * result.schmidt_number == pytest.approx(1.0, abs=1e-12)
        assert result.coefficients.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(result.singular_values) <= 0.0)

    def test_purity_monotone_in_pump_linewidth(self):
        ratios = (100.0, 10.0, 1.0, 0.1, 0.01)
        purities = [
            schmidt(jsa(SQUARE_GRID, r * GAMMA_GHZ, GAMMA_GHZ, GAMMA_GHZ, *AT_CENTER)).purity
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
            joint = jsa(SQUARE_GRID, ratio * GAMMA_GHZ, GAMMA_GHZ, GAMMA_GHZ, *AT_CENTER)
            got = schmidt(joint).purity
            assert got == pytest.approx(value, abs=1e-9)

    def test_grid_refinement_stability(self):
        fine_axis = SpectralAxis(center_nm=1555.0, span_nm=2.72, step_pm=5.0)
        fine = SpectralGrid(signal=fine_axis, idler=fine_axis)
        delta = 0.05 * GAMMA_GHZ
        coarse_purity = schmidt(jsa(SQUARE_GRID, delta, GAMMA_GHZ, GAMMA_GHZ, *AT_CENTER)).purity
        fine_purity = schmidt(jsa(fine, delta, GAMMA_GHZ, GAMMA_GHZ, *AT_CENTER)).purity
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
        matrix = scan(self.SCAN)
        assert np.all(matrix >= 0.0)

    def test_instrument_conserves_row_mass(self):
        sharp = scan(self.SCAN, resolution_fwhm_pm=0.0)
        blurred = scan(self.SCAN, resolution_fwhm_pm=67.0)
        np.testing.assert_allclose(
            blurred.sum(axis=1), sharp.sum(axis=1), rtol=1e-9
        )

    def test_ridge_slope_near_energy_conservation(self):
        matrix = scan(self.SCAN, resolution_fwhm_pm=67.0)
        fit = ridge_fit(
            matrix,
            self.SCAN.signal.wavelengths_nm(),
            self.SCAN.idler.wavelengths_nm(),
        )
        expected = -((TRIPLET.idler_nm / TRIPLET.signal_nm) ** 2)
        assert fit.slope == pytest.approx(expected, abs=0.01)

    def test_delta_limit_collapses_columns(self):
        matrix = scan(self.SCAN, pump_linewidth_ghz=0.01, resolution_fwhm_pm=0.0)
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
        narrow = scan(self.SCAN, resolution_fwhm_pm=67.0)
        wide = scan(self.SCAN, resolution_fwhm_pm=134.0)
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
            scan(off_window)

    def test_rejects_negative_resolution(self):
        with pytest.raises(ValueError, match="resolution_fwhm_pm"):
            scan(self.SCAN, resolution_fwhm_pm=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="resolution_fwhm_pm"):
                scan(self.SCAN, resolution_fwhm_pm=bad)

    def test_rejects_nonpositive_or_nonfinite_linewidths(self):
        for name in ("pump_linewidth_ghz", "signal_linewidth_ghz", "idler_linewidth_ghz"):
            for bad in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match=name):
                    scan(self.SCAN, **{name: bad})


def cell_edges_ghz(axis: SpectralAxis, resonance_nm: float) -> np.ndarray:
    """Idler detuning at the cell edges, highest (shortest wavelength) first."""
    wavelengths = axis.wavelengths_nm()
    half = axis.step_nm / 2.0
    return detuning_ghz(np.append(wavelengths - half, wavelengths[-1] + half), resonance_nm)


def brute_force_scan(
    grid: SpectralGrid,
    triplet: FwmTriplet,
    pump_linewidth_ghz: float,
    subsamples: int = 4096,
) -> np.ndarray:
    """Unblurred scan averaged over ``subsamples`` cell-centered points per
    idler cell, uniform in wavelength, with the exact detuning at each."""
    idler = grid.idler.wavelengths_nm()
    offsets = ((np.arange(subsamples) + 0.5) / subsamples - 0.5) * grid.idler.step_nm
    omega_i = detuning_ghz(idler[:, None] + offsets[None, :], triplet.idler_nm)
    idler_filter = np.abs(resonance_lineshape(omega_i, GAMMA_GHZ)) ** 2
    omega_s = detuning_ghz(grid.signal.wavelengths_nm(), triplet.signal_nm)
    sum_offset = SPEED_OF_LIGHT_NM_GHZ * triplet.energy_residual_per_nm
    rows = []
    for omega in omega_s:
        pump = np.abs(
            two_photon_pump_lineshape(omega + omega_i - sum_offset, pump_linewidth_ghz)
        ) ** 2
        signal_filter = abs(complex(resonance_lineshape(omega, GAMMA_GHZ))) ** 2
        rows.append((pump * idler_filter).mean(axis=1) * signal_filter)
    return np.array(rows)


class TestScanReference:
    # 61 x 61 cells of 10 pm, with neither resonance on a cell center.
    GRID = SpectralGrid(
        signal=SpectralAxis(center_nm=TRIPLET.signal_nm + 0.123, span_nm=0.6, step_pm=10.0),
        idler=SpectralAxis(center_nm=TRIPLET.idler_nm - 0.137, span_nm=0.6, step_pm=10.0),
    )

    @pytest.mark.parametrize("pump_linewidth", [0.05, 1.0, 35.0])
    def test_matches_brute_force_cell_average(self, pump_linewidth):
        got = simulate_jsd_scan(
            self.GRID,
            TRIPLET,
            pump_linewidth_ghz=pump_linewidth,
            signal_linewidth_ghz=GAMMA_GHZ,
            idler_linewidth_ghz=GAMMA_GHZ,
            resolution_fwhm_pm=0.0,
        )
        reference = brute_force_scan(self.GRID, TRIPLET, pump_linewidth)
        assert got.shape == (61, 61)
        assert np.max(np.abs(got - reference)) <= 1e-5 * np.max(reference)


class TestCellMean:
    """The closed-form cell mean against elementary integrals."""

    @staticmethod
    def coincident_antiderivative(y, h):
        # d/dy of this is h^4 / (y^2 + h^2)^2, the integrand when a = 0 and d = h.
        return 0.5 * h * (h * y / (y * y + h * h) + np.arctan(y / h))

    @pytest.mark.parametrize("relative_offset", [0.0, 1e-13, -1e-13])
    def test_coincident_poles(self, relative_offset):
        h = 35.0
        low = np.array([-0.5, 10.0, 300.0, -400.0])
        high = np.array([0.7, 11.25, 301.25, 400.0])
        with np.errstate(all="raise"):
            got = _idler_cell_mean(np.zeros((1, 1)), low, high, h * (1.0 + relative_offset), h)
        exact = (
            self.coincident_antiderivative(high, h) - self.coincident_antiderivative(low, h)
        ) / (high - low)
        np.testing.assert_allclose(got[0], exact, rtol=1e-9)

    @pytest.mark.parametrize("shift", [0.0, 3.0, -50.0])
    @pytest.mark.parametrize("pump_linewidth", [0.05, 35.0, 1e3])
    def test_wide_span_is_lorentzian_convolution(self, shift, pump_linewidth):
        # Two Lorentzians of half widths d and h convolve to one of half
        # width d + h: the full integral is pi*d*h*(d+h)/(a^2 + (d+h)^2).
        h = 35.0
        span = 1e9
        s = pump_linewidth + h
        got = _idler_cell_mean(
            np.full((1, 1), shift), np.array([-span]), np.array([span]), pump_linewidth, h
        )
        expected = math.pi * pump_linewidth * h * s / (shift**2 + s**2)
        assert got[0, 0] * 2.0 * span == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("pump_linewidth", [1e100, 1e300])
    def test_flat_pump_leaves_the_idler_lorentzian(self, pump_linewidth):
        # A pump far wider than everything is flat, so the mean is the idler
        # Lorentzian's arctan difference; no factor may overflow on the way
        # (squares of the tiny shift/linewidth ratios may underflow to 0).
        h = 35.0
        low = np.array([-1.0, 10.0, -300.0])
        high = np.array([0.5, 11.25, 300.0])
        with np.errstate(all="raise", under="ignore"):
            got = _idler_cell_mean(np.array([[0.0], [50.0]]), low, high, pump_linewidth, h)
        expected = h * (np.arctan(high / h) - np.arctan(low / h)) / (high - low)
        np.testing.assert_allclose(got, np.vstack([expected, expected]), rtol=1e-13)

    @pytest.mark.parametrize("pump_linewidth", [1e-300, 1e-260])
    def test_narrow_pump_is_its_pole(self, pump_linewidth):
        # A pump far narrower than everything else is pi*d*|l_i(-a)|^2 over
        # the cell width in the cell holding its pole at -a, and O(d^2),
        # which underflows, elsewhere.  The second row's shift is the
        # detuning of a 0.5 nm signal; no ratio by d may overflow on the way.
        h = 35.0
        low = np.array([5.0, 10.0, 11.0])
        high = np.array([10.0, 11.0, 20.0])
        got = _idler_cell_mean(np.array([[-10.3], [6e17]]), low, high, pump_linewidth, h)
        pole = math.pi * pump_linewidth * h**2 / (10.3**2 + h**2)
        np.testing.assert_allclose(got, [[0.0, pole, 0.0], [0.0, 0.0, 0.0]], rtol=1e-12, atol=0.0)

    def test_subnormal_pump_stays_finite(self):
        got = _idler_cell_mean(np.array([[-10.3], [6e17]]), np.array([10.0]), np.array([11.0]),
                               5e-324, 35.0)
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)

    @pytest.mark.parametrize(
        "shift, y, pump_linewidth, idler_linewidth",
        [(0.0, 0.0, 0.05, 70.0), (120.0, -119.99, 0.05, 70.0), (-30.0, 200.0, 35.0, 70.0),
         (5.0, -3.0, 1e3, 2.0), (0.0, 35.0, 35.0, 70.0)],
    )
    def test_narrow_cell_is_point_value(self, shift, y, pump_linewidth, idler_linewidth):
        width = 1e-7
        got = _idler_cell_mean(
            np.full((1, 1), shift),
            np.array([y - width / 2.0]),
            np.array([y + width / 2.0]),
            pump_linewidth,
            idler_linewidth / 2.0,
        )
        point = (
            abs(complex(two_photon_pump_lineshape(y + shift, pump_linewidth))) ** 2
            * abs(complex(resonance_lineshape(y, idler_linewidth))) ** 2
        )
        assert got[0, 0] == pytest.approx(point, rel=1e-9)


class TestScanProperties:
    # The triplet conserves energy exactly and the signal axis has a sample
    # exactly on the signal resonance, so that row has zero sum detuning at
    # the idler resonance; a pump linewidth of half the idler linewidth then
    # puts the pump and idler poles of the cell integral on one point.
    GRID = SpectralGrid(
        signal=SpectralAxis(center_nm=TRIPLET.signal_nm, span_nm=0.32, step_pm=20.0),
        idler=SpectralAxis(center_nm=TRIPLET.idler_nm + 0.05, span_nm=0.64, step_pm=20.0),
    )

    def test_grid_holds_the_coincident_row(self):
        assert TRIPLET.energy_residual_per_nm == 0.0
        assert TRIPLET.signal_nm in self.GRID.signal.wavelengths_nm()

    @settings(max_examples=150, deadline=None)
    @given(
        pump=st.floats(min_value=1e-4, max_value=1e4),
        signal=st.floats(min_value=1.0, max_value=500.0),
        idler=st.floats(min_value=1.0, max_value=500.0),
    )
    @example(pump=35.0, signal=70.0, idler=70.0)
    @example(pump=0.5, signal=1.0, idler=1.0)
    @example(pump=250.0, signal=500.0, idler=500.0)
    @example(pump=1e-4, signal=1.0, idler=1.0)
    @example(pump=1e4, signal=500.0, idler=1.0)
    def test_finite_nonnegative_and_mass_exact(self, pump, signal, idler):
        widths = dict(
            pump_linewidth_ghz=pump, signal_linewidth_ghz=signal, idler_linewidth_ghz=idler
        )
        with np.errstate(all="raise"):
            blurred = scan(self.GRID, **widths)
            sharp = scan(self.GRID, resolution_fwhm_pm=0.0, **widths)
        for matrix in (blurred, sharp):
            assert np.all(np.isfinite(matrix))
            assert np.all(matrix >= 0.0)

        # Each cell holds its mean over its own detuning width, and the
        # cells tile the span, so weighting by those widths gives the row's
        # integral over the whole span (the sum offset is exactly zero).
        edges = cell_edges_ghz(self.GRID.idler, TRIPLET.idler_nm)
        omega_s = detuning_ghz(self.GRID.signal.wavelengths_nm(), TRIPLET.signal_nm)
        span_mean = _idler_cell_mean(
            omega_s[:, None], edges[-1:], edges[:1], pump, idler / 2.0
        )[:, 0]
        expected = (
            span_mean
            * (edges[0] - edges[-1])
            * np.abs(resonance_lineshape(omega_s, signal)) ** 2
        )
        np.testing.assert_allclose(sharp @ (edges[:-1] - edges[1:]), expected, rtol=1e-9)


def nystrom_purity(grid, triplet, pump, signal_width, idler_width, offset_sign=1.0) -> float:
    """Purity of the amplitude on Gauss-Legendre panels no wider than the
    pump linewidth: ``B = sqrt(w_x) A sqrt(w_y)`` over the windows in
    frequency, and ``||B^H B||_F^2 / ||B||_F^4``."""
    nodes, weights = np.polynomial.legendre.leggauss(8)

    def axis(spectral_axis, resonance_nm):
        low, high = detuning_ghz(
            [spectral_axis.center_nm + spectral_axis.span_nm / 2.0,
             spectral_axis.center_nm - spectral_axis.span_nm / 2.0],
            resonance_nm,
        )
        edges = np.linspace(low, high, math.ceil((high - low) / pump) + 1)
        half = np.diff(edges)[:, None] / 2.0
        return ((edges[:-1, None] + half) + half * nodes).ravel(), (half * weights).ravel()

    x, x_weights = axis(grid.signal, triplet.signal_nm)
    y, y_weights = axis(grid.idler, triplet.idler_nm)
    offset = offset_sign * SPEED_OF_LIGHT_NM_GHZ * triplet.energy_residual_per_nm
    amplitude = (
        two_photon_pump_lineshape(x[:, None] + y[None, :] - offset, pump)
        * resonance_lineshape(x, signal_width)[:, None]
        * resonance_lineshape(y, idler_width)[None, :]
    )
    b = np.sqrt(x_weights)[:, None] * amplitude * np.sqrt(y_weights)[None, :]
    gram = b.conj().T @ b
    return float(np.sum(np.abs(gram) ** 2) / np.sum(np.abs(b) ** 2) ** 2)


def wide_grid(width_ghz: float, linewidths: float) -> SpectralGrid:
    """Windows about ``linewidths`` resonance linewidths to each side of
    ``TRIPLET``'s signal and idler, 65 points each."""
    def axis(resonance_nm):
        span_nm = 2.0 * linewidths * width_ghz * resonance_nm**2 / SPEED_OF_LIGHT_NM_GHZ
        return SpectralAxis(center_nm=resonance_nm, span_nm=span_nm, step_pm=span_nm * 1e3 / 64)

    return SpectralGrid(signal=axis(TRIPLET.signal_nm), idler=axis(TRIPLET.idler_nm))


class TestSchmidtPurity:
    """The closed-form purity over the scan windows in frequency."""

    DEFAULT_WIDTH = 70.0671902361555
    # 3 nm windows off the resonances, and a triplet whose idler sits 0.1 nm
    # off energy conservation (a 12.5 GHz ridge offset).  The windows are not
    # centered, so mirroring the offset moves the purity by about 1%.
    OFF_TRIPLET = FwmTriplet(
        pump_nm=TRIPLET.pump_nm, signal_nm=TRIPLET.signal_nm, idler_nm=TRIPLET.idler_nm + 0.1
    )
    OFF_GRID = SpectralGrid(
        signal=SpectralAxis(center_nm=TRIPLET.signal_nm + 0.8, span_nm=3.0, step_pm=10.0),
        idler=SpectralAxis(center_nm=TRIPLET.idler_nm - 0.5, span_nm=3.0, step_pm=10.0),
    )
    CENTERED_GRID = SpectralGrid(
        signal=SpectralAxis(center_nm=TRIPLET.signal_nm, span_nm=3.0, step_pm=10.0),
        idler=SpectralAxis(center_nm=TRIPLET.idler_nm, span_nm=3.0, step_pm=10.0),
    )

    @pytest.mark.parametrize("pump", [5.0, 35.0])
    @pytest.mark.parametrize("offset", [False, True], ids=["on_resonance", "offset_ridge"])
    def test_matches_nystrom_oracle(self, pump, offset):
        triplet, grid = (self.OFF_TRIPLET, self.OFF_GRID) if offset else (TRIPLET, self.CENTERED_GRID)
        assert (triplet.energy_residual_per_nm != 0.0) == offset
        expected = nystrom_purity(grid, triplet, pump, GAMMA_GHZ, 0.99 * GAMMA_GHZ)
        got = schmidt_purity(grid, triplet, pump, GAMMA_GHZ, 0.99 * GAMMA_GHZ)
        assert got == pytest.approx(expected, rel=1e-6)
        if offset:
            mirrored = nystrom_purity(
                grid, triplet, pump, GAMMA_GHZ, 0.99 * GAMMA_GHZ, offset_sign=-1.0
            )
            assert abs(mirrored / expected - 1.0) > 1e-3

    @pytest.mark.parametrize("pump", [0.005, 0.05, 0.5, 5.0, 35.0])
    def test_refined_quadrature_agrees(self, monkeypatch, pump):
        # Twice the panels per decade, a first panel half as wide.
        widths = (pump, self.DEFAULT_WIDTH, self.DEFAULT_WIDTH)
        coarse = schmidt_purity(CONFIG.jsd_grid, CONFIG.triplet, *widths)
        monkeypatch.setattr(jsd_module, "_PANEL_RATIO", math.sqrt(jsd_module._PANEL_RATIO))
        monkeypatch.setattr(jsd_module, "_FIRST_PANEL", jsd_module._FIRST_PANEL / 2.0)
        monkeypatch.setattr(jsd_module, "_PANEL_LEVELS", 2 * jsd_module._PANEL_LEVELS)
        fine = schmidt_purity(CONFIG.jsd_grid, CONFIG.triplet, *widths)
        assert coarse == pytest.approx(fine, rel=1e-8)

    def test_default_is_near_the_narrow_pump_limit(self):
        purity = schmidt_purity(
            CONFIG.jsd_grid, CONFIG.triplet, CONFIG.pump_linewidth_ghz,
            self.DEFAULT_WIDTH, self.DEFAULT_WIDTH,
        )
        limit = self.DEFAULT_WIDTH / (5.0 * CONFIG.pump_linewidth_ghz)
        assert 1.0 / purity == pytest.approx(limit, rel=0.01)

    @settings(max_examples=60, deadline=None)
    @given(
        pump=st.floats(min_value=1e-3, max_value=1e4),
        signal=st.floats(min_value=5.0, max_value=300.0),
        idler=st.floats(min_value=5.0, max_value=300.0),
    )
    @example(pump=1e4, signal=5.0, idler=5.0)
    @example(pump=35.0, signal=70.0, idler=70.0)
    def test_purity_in_unit_interval(self, pump, signal, idler):
        grid = SpectralGrid(
            signal=SpectralAxis(center_nm=TRIPLET.signal_nm, span_nm=12.0, step_pm=100.0),
            idler=SpectralAxis(center_nm=TRIPLET.idler_nm, span_nm=12.0, step_pm=100.0),
        )
        assert 0.0 < schmidt_purity(grid, TRIPLET, pump, signal, idler) <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        ratio=st.floats(min_value=1e-5, max_value=1e-3),
        width=st.floats(min_value=20.0, max_value=200.0),
    )
    def test_narrow_pump_limit(self, ratio, width):
        # K -> Gamma/(5 delta), the integral of |phi(u) phi*(u + D)|^2 over
        # the ridge, with a correction of about 3.8 delta/Gamma.
        purity = schmidt_purity(wide_grid(width, 250.0), TRIPLET, ratio * width, width, width)
        assert abs(5.0 * ratio / purity - 1.0) <= 4.0 * ratio + 1e-5

    @pytest.mark.parametrize("pump", [5e-324, 1e-300, 1e300, 1.7e308])
    def test_extreme_pump_linewidths(self, pump):
        # Tier-1 turns any RuntimeWarning on the way into an error.
        purity = schmidt_purity(
            CONFIG.jsd_grid, CONFIG.triplet, pump, self.DEFAULT_WIDTH, self.DEFAULT_WIDTH
        )
        if pump < 1.0:
            # The purity is linear in a narrow pump; at 5e-324 it underflows to 0.
            assert purity == pytest.approx(5.0 * pump / self.DEFAULT_WIDTH, rel=0.01, abs=0.0)
        else:
            assert purity == pytest.approx(1.0, abs=1e-12)
            assert purity <= 1.0

    def test_rejects_narrow_span(self):
        narrow = SpectralAxis(center_nm=1555.0, span_nm=0.5, step_pm=10.0)
        with pytest.raises(ValueError, match="four"):
            schmidt_purity(SpectralGrid(signal=narrow, idler=narrow), TRIPLET, 3.5, 70.0, 70.0)

    @pytest.mark.parametrize("name", ["pump", "signal", "idler"])
    def test_rejects_nonpositive_or_nonfinite_linewidths(self, name):
        for bad in (0.0, -1.0, math.nan, math.inf):
            widths = {"pump": 0.05, "signal": 70.0, "idler": 70.0, name: bad}
            with pytest.raises(ValueError, match=f"{name}_linewidth_ghz"):
                schmidt_purity(CONFIG.jsd_grid, CONFIG.triplet, *widths.values())
