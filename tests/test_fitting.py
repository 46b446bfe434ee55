"""Tests for spectrum/lasing-curve fitting and the weighted line fit.

The line fit is checked against the exact rational least-squares
solution of the same floats, computed with :class:`fractions.Fraction`.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopfwm.config import default_config_text, parse_config
from loopfwm.fitting import (
    FitParameter,
    FitReport,
    Spectrum,
    fit_lasing_curve,
    fit_lorentzian,
    lorentzian_profile,
    weighted_line,
)
from loopfwm.instrument import centered_grid, range_grid
from loopfwm.laser import output_power_curve, steady_state_roundtrip
from loopfwm.ring import RingGeometry, drop_spectrum, solve_coupling, through_spectrum

CENTER_NM = 1555.87
Q_TARGET = 2750.0
GEOMETRY = RingGeometry(radius_um=10.0, group_index=5.136951696849072)
COUPLING = solve_coupling(GEOMETRY, CENTER_NM, Q_TARGET, 0.04)
CONFIG = parse_config(default_config_text())


def synthetic_lorentzian(window_half_nm, step_nm, fwhm_nm, amplitude, baseline):
    grid = centered_grid(CENTER_NM, 2.0 * window_half_nm, step_nm)
    return grid, lorentzian_profile(grid, CENTER_NM, fwhm_nm, amplitude, baseline)


class TestSpectrumType:
    def test_rejects_unsorted_wavelengths(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Spectrum(np.array([1.0, 3.0, 2.0]), np.zeros(3), 50.0, "drop")

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValueError, match="finite"):
            Spectrum(np.array([1.0, 2.0, 3.0]), np.array([0.0, np.nan, 0.0]), 50.0, "drop")

    def test_rejects_out_of_range_transmission(self):
        with pytest.raises(ValueError, match="transmission"):
            Spectrum(np.array([1.0, 2.0]), np.array([0.0, 1.2]), 50.0, "through")
        with pytest.raises(ValueError, match="transmission"):
            Spectrum(np.array([1.0, 2.0]), np.array([-0.1, 0.5]), 50.0, "drop")

    def test_idler_kind_is_unbounded_above(self):
        spectrum = Spectrum(np.array([1.0, 2.0]), np.array([0.0, 7.5]), 50.0, "idler")
        assert spectrum.size == 2

    def test_allows_noise_headroom(self):
        Spectrum(np.array([1.0, 2.0]), np.array([0.3, 1.04]), 50.0, "through")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Spectrum(np.array([1.0, 2.0]), np.zeros(2), 50.0, "add")

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError, match="resolution_pm"):
            Spectrum(np.array([1.0, 2.0]), np.zeros(2), 0.0, "drop")


class TestFitReportType:
    def test_rejects_negative_uncertainty(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FitParameter(1.0, -0.1)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FitReport({"a": FitParameter(1.0, 0.0)}, 0.0, -1, 0)

    def test_parameters_are_read_only(self):
        report = FitReport({"a": FitParameter(1.0, 0.0)}, 0.0, 1, 0)
        with pytest.raises(TypeError):
            report.parameters["b"] = FitParameter(2.0, 0.0)


class TestLorentzianFit:
    def test_recovers_noiseless_model(self):
        grid, values = synthetic_lorentzian(4.0, 0.01, 0.57, -0.19, 0.2)
        spectrum = Spectrum(grid, values, 10.0, "through")
        report = fit_lorentzian(spectrum, (CENTER_NM - 4.0, CENTER_NM + 4.0))
        assert report.value("center_nm") == pytest.approx(CENTER_NM, rel=1e-6)
        assert report.value("fwhm_nm") == pytest.approx(0.57, rel=1e-6)
        assert report.value("baseline") == pytest.approx(0.2, rel=1e-6)
        assert report.value("amplitude") == pytest.approx(-0.19, rel=1e-6)
        assert report.residual_rms < 1e-9

    def test_quality_factor_is_center_over_fwhm(self):
        grid, values = synthetic_lorentzian(3.0, 0.05, 0.57, 0.6, 0.1)
        report = fit_lorentzian(
            Spectrum(grid, values, 50.0, "drop"), (CENTER_NM - 3.0, CENTER_NM + 3.0)
        )
        assert report.value("quality_factor") == pytest.approx(
            report.value("center_nm") / report.value("fwhm_nm"), rel=1e-12
        )

    def test_dip_reports_extinction_peak_reports_peak(self):
        grid, dip = synthetic_lorentzian(3.0, 0.05, 0.57, -0.76, 0.8)
        report = fit_lorentzian(
            Spectrum(grid, dip, 50.0, "through"), (CENTER_NM - 3.0, CENTER_NM + 3.0)
        )
        assert report.value("extinction") == pytest.approx(0.04, rel=1e-6)
        grid, peak = synthetic_lorentzian(3.0, 0.05, 0.57, 0.6, 0.05)
        report = fit_lorentzian(
            Spectrum(grid, peak, 50.0, "drop"), (CENTER_NM - 3.0, CENTER_NM + 3.0)
        )
        assert report.value("peak") == pytest.approx(0.65, rel=1e-6)

    def test_monte_carlo_quality_recovery(self):
        # Frozen configuration: 50 pm sampling, noise sigma at 1% of the
        # line amplitude, +/-3 nm window, seeds 0..99.
        fwhm = CENTER_NM / Q_TARGET
        amplitude = 0.6382200814494171
        grid, clean = synthetic_lorentzian(3.0, 0.05, fwhm, amplitude, 0.2)
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = clean + rng.normal(0.0, 0.01 * amplitude, size=grid.size)
            report = fit_lorentzian(
                Spectrum(grid, noisy, 50.0, "drop"),
                (CENTER_NM - 3.0, CENTER_NM + 3.0),
            )
            error = abs(report.value("quality_factor") - Q_TARGET) / Q_TARGET
            worst = max(worst, error)
        assert worst < 0.02

    def test_fitted_ring_quality_in_published_band(self):
        grid = centered_grid(CENTER_NM, 6.0, 0.05)
        values = drop_spectrum(grid, CENTER_NM, GEOMETRY, COUPLING)
        report = fit_lorentzian(
            Spectrum(grid, values, 50.0, "drop"), (CENTER_NM - 3.0, CENTER_NM + 3.0)
        )
        assert 2500.0 <= report.value("quality_factor") <= 3000.0

    def test_through_port_extinction_recovered(self):
        grid = centered_grid(CENTER_NM, 6.0, 0.05)
        values = through_spectrum(grid, CENTER_NM, GEOMETRY, COUPLING)
        report = fit_lorentzian(
            Spectrum(grid, values, 50.0, "through"), (CENTER_NM - 3.0, CENTER_NM + 3.0)
        )
        assert report.value("extinction") == pytest.approx(0.04, abs=0.005)
        assert report.value("extinction") < 0.05

    def test_flags_second_resonance(self):
        grid = centered_grid(CENTER_NM, 8.0, 0.05)
        values = (
            0.8
            + lorentzian_profile(grid, CENTER_NM - 2.0, 0.57, -0.7, 0.0)
            + lorentzian_profile(grid, CENTER_NM + 2.0, 0.57, -0.7, 0.0)
        )
        spectrum = Spectrum(grid, values, 50.0, "through")
        with pytest.raises(ValueError, match="more than one resonance"):
            fit_lorentzian(spectrum, (CENTER_NM - 4.0, CENTER_NM + 4.0))

    def test_rejects_coarse_sampling(self):
        fwhm = CENTER_NM / Q_TARGET
        grid, values = synthetic_lorentzian(3.0, 0.2, fwhm, 0.6, 0.1)
        with pytest.raises(ValueError, match="across the fitted linewidth"):
            fit_lorentzian(
                Spectrum(grid, values, 200.0, "drop"),
                (CENTER_NM - 3.0, CENTER_NM + 3.0),
            )

    def test_rejects_empty_or_reversed_window(self):
        grid, values = synthetic_lorentzian(3.0, 0.05, 0.57, 0.6, 0.1)
        spectrum = Spectrum(grid, values, 50.0, "drop")
        with pytest.raises(ValueError, match="start < stop"):
            fit_lorentzian(spectrum, (CENTER_NM + 1.0, CENTER_NM - 1.0))
        with pytest.raises(ValueError, match="samples"):
            fit_lorentzian(spectrum, (CENTER_NM + 10.0, CENTER_NM + 11.0))

    def test_noisy_uncertainties_cover_truth(self):
        grid, clean = synthetic_lorentzian(3.0, 0.05, 0.57, 0.6, 0.1)
        rng = np.random.default_rng(11)
        noisy = clean + rng.normal(0.0, 0.006, size=grid.size)
        report = fit_lorentzian(
            Spectrum(grid, noisy, 50.0, "drop"), (CENTER_NM - 3.0, CENTER_NM + 3.0)
        )
        assert report.sigma("center_nm") > 0.0
        assert abs(report.value("center_nm") - CENTER_NM) < 5.0 * report.sigma("center_nm")
        assert abs(report.value("fwhm_nm") - 0.57) < 5.0 * report.sigma("fwhm_nm")

    def test_point_accounting(self):
        grid, values = synthetic_lorentzian(4.0, 0.05, 0.57, 0.6, 0.1)
        spectrum = Spectrum(grid, values, 50.0, "drop")
        report = fit_lorentzian(spectrum, (CENTER_NM - 2.0, CENTER_NM + 2.0))
        assert report.points_used + report.points_excluded == spectrum.size
        assert report.points_excluded > 0


def exact_line(xs, ys, weights) -> tuple[Fraction, Fraction]:
    """Exact weighted least-squares slope and intercept of the given floats."""
    x = [Fraction(float(v)) for v in xs]
    y = [Fraction(float(v)) for v in ys]
    w = [Fraction(float(v)) for v in weights]
    s0 = sum(w)
    sx = sum(wi * xi for wi, xi in zip(w, x))
    sy = sum(wi * yi for wi, yi in zip(w, y))
    sxx = sum(wi * xi * xi for wi, xi in zip(w, x))
    sxy = sum(wi * xi * yi for wi, xi, yi in zip(w, x, y))
    slope = (s0 * sxy - sx * sy) / (s0 * sxx - sx * sx)
    return slope, (sy - slope * sx) / s0


def assert_close_to_exact(got: float, exact: Fraction, rel: float = 1e-12) -> None:
    assert abs(Fraction(got) - exact) <= rel * abs(exact)


class TestLinearLeastSquares:
    def test_exact_line(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        slope, intercept, covariance = weighted_line(xs, 2.0 * xs + 1.0, np.ones(5))
        assert slope == pytest.approx(2.0, abs=1e-14)
        assert intercept == pytest.approx(1.0, abs=1e-14)
        assert np.sqrt(covariance[0, 0]) < 1e-13

    def test_two_point_line_is_exact(self):
        slope, intercept, covariance = weighted_line(
            np.array([1.0, 3.0]), np.array([3.0, 7.0]), np.ones(2)
        )
        assert slope == pytest.approx(2.0, abs=1e-14)
        assert intercept == pytest.approx(1.0, abs=1e-14)
        assert np.all(covariance == 0.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(0.0, 10.0, size=25)
        ys = 1.7 * xs - 0.3 + rng.normal(0.0, 0.2, size=25)
        weights = rng.uniform(0.1, 3.0, size=25)
        order = rng.permutation(25)
        a = weighted_line(xs, ys, weights)
        b = weighted_line(xs[order], ys[order], weights[order])
        assert b[0] == pytest.approx(a[0], rel=1e-12)
        assert b[1] == pytest.approx(a[1], rel=1e-12)
        np.testing.assert_allclose(b[2], a[2], rtol=1e-10)

    def test_matches_matrix_solution(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = rng.integers(5, 40)
            xs = rng.uniform(-5.0, 5.0, size=n)
            ys = rng.normal(size=n)
            weights = rng.uniform(0.1, 3.0, size=n)
            slope, intercept, covariance = weighted_line(xs, ys, weights)
            scaled = np.sqrt(weights)
            design = np.column_stack([xs, np.ones(n)]) * scaled[:, None]
            params, *_ = np.linalg.lstsq(design, ys * scaled, rcond=None)
            assert slope == pytest.approx(params[0], rel=1e-10, abs=1e-12)
            assert intercept == pytest.approx(params[1], rel=1e-10, abs=1e-12)
            residual = ys - (params[0] * xs + params[1])
            scale = float(weights @ residual**2) / (n - 2)
            expected = scale * np.linalg.inv(design.T @ design)
            np.testing.assert_allclose(covariance, expected, rtol=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            weighted_line(np.array([1.0]), np.array([2.0]), np.ones(1))
        with pytest.raises(ValueError, match="no spread"):
            weighted_line(np.full(3, 2.0), np.array([1.0, 2.0, 3.0]), np.ones(3))
        with pytest.raises(ValueError, match="weights"):
            weighted_line(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="weights"):
            weighted_line(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            weighted_line(np.array([1.0, 2.0]), np.array([1.0, np.inf]), np.ones(2))
        with pytest.raises(ValueError, match="1-D"):
            weighted_line(np.ones(3), np.ones(2), np.ones(3))


def zoom_curve() -> tuple[np.ndarray, np.ndarray]:
    """The threshold zoom of ``laser-curve --tpa 0.02 --start-ma 90
    --stop-ma 90.004 --step-ma 0.0005``: 9 currents a few microamps apart
    at a 90 mA offset, with the first one dark."""
    currents = range_grid(90.0, 90.004, 0.0005)
    powers = np.array(
        [
            steady_state_roundtrip(
                CONFIG.gain, CONFIG.budget, current, tpa_db_per_mw=0.02
            ).drop_port_power_mw
            for current in currents
        ]
    )
    return currents, powers


@st.composite
def offset_lines(draw):
    """Noisy lines whose x values sit 2 to 1e4 spreads away from zero,
    with the x-intercept between zero and the data, as on a lasing curve."""
    n = draw(st.integers(min_value=3, max_value=40))
    spread = draw(st.floats(min_value=1e-6, max_value=1e3))
    offset = spread * draw(st.floats(min_value=2.0, max_value=1e4))
    unit = st.floats(min_value=0.0, max_value=1.0)
    positions = [0.0, 1.0] + draw(st.lists(unit, min_size=n - 2, max_size=n - 2))
    xs = offset + spread * np.array(positions)
    root = offset - spread * draw(st.floats(min_value=0.5, max_value=1.0))
    slope = draw(st.floats(min_value=0.1, max_value=10.0)) * draw(st.sampled_from([-1.0, 1.0]))
    noise = 1e-3 * abs(slope) * spread
    jitter = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    ys = slope * (xs - root) + noise * jitter
    weights = np.array(draw(st.lists(st.floats(1e-2, 1e2), min_size=n, max_size=n)))
    return xs, ys, weights


class TestExactReference:
    """``weighted_line`` against the exact rational fit of the same floats."""

    def test_laser_zoom_matches_exact(self):
        currents, powers = zoom_curve()
        lit = powers > 0.0
        assert np.count_nonzero(lit) == 8
        slope, intercept, _ = weighted_line(currents[lit], powers[lit], np.ones(8))
        exact_slope, exact_intercept = exact_line(currents[lit], powers[lit], np.ones(8))
        assert_close_to_exact(slope, exact_slope)
        assert_close_to_exact(intercept, exact_intercept)

    def test_lasing_fit_of_zoom_matches_exact(self):
        currents, powers = zoom_curve()
        report = fit_lasing_curve(currents, powers)
        assert report.points_used == 8
        lit = powers > 0.0
        exact_slope, exact_intercept = exact_line(currents[lit], powers[lit], np.ones(8))
        assert_close_to_exact(report.value("slope_mw_per_ma"), exact_slope)
        assert_close_to_exact(report.value("intercept_mw"), exact_intercept)
        assert_close_to_exact(report.value("threshold_ma"), -exact_intercept / exact_slope)

    @settings(deadline=None, max_examples=200)
    @given(case=offset_lines())
    def test_offset_lines_match_exact(self, case):
        xs, ys, weights = case
        slope, intercept, _ = weighted_line(xs, ys, weights)
        exact_slope, exact_intercept = exact_line(xs, ys, weights)
        assert_close_to_exact(slope, exact_slope)
        assert_close_to_exact(intercept, exact_intercept)


class TestLasingCurveFit:
    BUDGET = CONFIG.budget
    GAIN = CONFIG.gain
    CURRENTS = np.arange(80.0, 152.5, 5.0)

    def test_recovers_configured_threshold(self):
        powers, _ = output_power_curve(self.GAIN, self.BUDGET, self.CURRENTS)
        report = fit_lasing_curve(self.CURRENTS, powers, exclusion_cutoff_ma=130.0)
        assert report.value("threshold_ma") == pytest.approx(90.0, abs=0.1)

    def test_hinge_excludes_dark_points(self):
        powers, _ = output_power_curve(self.GAIN, self.BUDGET, self.CURRENTS)
        report = fit_lasing_curve(self.CURRENTS, powers, exclusion_cutoff_ma=130.0)
        dark = int(np.count_nonzero(self.CURRENTS <= 90.0))
        over = int(np.count_nonzero(self.CURRENTS > 130.0))
        assert report.points_excluded == dark + over
        assert report.points_used + report.points_excluded == self.CURRENTS.size

    def test_tpa_contamination_handled_by_cutoff(self):
        powers = np.array(
            [
                steady_state_roundtrip(
                    self.GAIN, self.BUDGET, current, tpa_db_per_mw=0.02
                ).drop_port_power_mw
                for current in self.CURRENTS
            ]
        )
        report = fit_lasing_curve(self.CURRENTS, powers, exclusion_cutoff_ma=130.0)
        assert report.value("threshold_ma") == pytest.approx(90.0, abs=1.0)

    def test_four_point_exact_line(self):
        currents = np.array([100.0, 110.0, 120.0, 130.0])
        report = fit_lasing_curve(currents, 0.02 * (currents - 90.0))
        assert report.value("threshold_ma") == pytest.approx(90.0, abs=1e-10)
        assert report.sigma("threshold_ma") < 1e-12

    @pytest.mark.parametrize("exponent", [-990, -3, 3, 990])
    def test_power_scale_is_exact(self, exponent):
        # Scaling the powers by a power of two scales every power-valued
        # result by the same factor, bit for bit, and leaves the threshold
        # alone, even where squared powers would leave float range.
        powers, _ = output_power_curve(self.GAIN, self.BUDGET, self.CURRENTS)
        base = fit_lasing_curve(self.CURRENTS, powers, exclusion_cutoff_ma=130.0)
        scaled = fit_lasing_curve(
            self.CURRENTS, np.ldexp(powers, exponent), exclusion_cutoff_ma=130.0
        )
        for name in ("slope_mw_per_ma", "intercept_mw"):
            assert scaled.value(name) == math.ldexp(base.value(name), exponent)
            assert scaled.sigma(name) == math.ldexp(base.sigma(name), exponent)
        assert scaled.residual_rms == math.ldexp(base.residual_rms, exponent)
        assert scaled.value("threshold_ma") == base.value("threshold_ma")
        assert scaled.sigma("threshold_ma") == base.sigma("threshold_ma")
        assert scaled.points_used == base.points_used

    def test_rejects_all_dark_data(self):
        with pytest.raises(ValueError, match="below threshold"):
            fit_lasing_curve(self.CURRENTS, np.zeros_like(self.CURRENTS))

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError, match="four points"):
            fit_lasing_curve(
                np.array([100.0, 110.0, 120.0, 130.0]),
                np.array([0.2, 0.4, 0.6, 0.8]),
                exclusion_cutoff_ma=115.0,
            )

    def test_noisy_threshold_uncertainty(self):
        rng = np.random.default_rng(23)
        currents = np.arange(95.0, 131.0, 2.5)
        powers = 0.02 * (currents - 90.0) + rng.normal(0.0, 0.01, size=currents.size)
        report = fit_lasing_curve(currents, powers)
        assert report.sigma("threshold_ma") > 0.0
        assert abs(report.value("threshold_ma") - 90.0) < 5.0 * report.sigma("threshold_ma")
