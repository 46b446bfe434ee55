"""Tests for spectrum/lasing-curve fitting and the weighted line fit.

The line fit is checked against the exact rational least-squares
solution of the same floats, computed with :class:`fractions.Fraction`.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import centered_points, peak_allocation

from loopfwm import fitting
from loopfwm.cli import main
from loopfwm.config import default_config_text, parse_config
from loopfwm.csvio import read_table
from loopfwm.fitting import (
    FitConvergenceError,
    FitParameter,
    FitReport,
    Spectrum,
    fit_lasing_curve,
    fit_lorentzian,
    lorentzian_profile,
    weighted_line,
)
from loopfwm.instrument import range_grid
from loopfwm.laser import output_power_curve, steady_state_roundtrip
from loopfwm.ring import RingGeometry, drop_spectrum, solve_coupling, through_spectrum

CENTER_NM = 1555.87
Q_TARGET = 2750.0
GEOMETRY = RingGeometry(radius_um=10.0, group_index=5.136951696849072)
COUPLING = solve_coupling(GEOMETRY, CENTER_NM, Q_TARGET, 0.04)
CONFIG = parse_config(default_config_text())


def synthetic_lorentzian(window_half_nm, step_nm, fwhm_nm, amplitude, baseline):
    grid = centered_points(CENTER_NM, 2.0 * window_half_nm, step_nm)
    return grid, lorentzian_profile(grid, CENTER_NM, fwhm_nm, amplitude, baseline)


def lorentzian_jacobian(grid, center, fwhm, amplitude, baseline):
    """Derivatives of the profile in center, FWHM, amplitude and baseline."""
    jacobian = np.empty((grid.size, 4))
    svd_jacobian(np.array([center, fwhm, amplitude, baseline]), grid, jacobian)
    return jacobian


# The Lorentzian solver as it stood before the fit moved to the 4×4 normal
# equations: a thin SVD of the column-scaled N×4 Jacobian at every step, and
# the covariance from the SVD of the Jacobian at the optimum.  It is kept as
# the reference that the eigen-decomposition solver is held to.


def svd_jacobian(params: np.ndarray, wavelengths: np.ndarray, jac: np.ndarray) -> None:
    """Write the profile's N×4 Jacobian at ``params`` into ``jac``."""
    center, fwhm, amplitude, _ = params
    with np.errstate(over="ignore", invalid="ignore"):
        u = 2.0 * (wavelengths - center) / fwhm
        shape = 1.0 / (1.0 + u * u)
        shape2 = shape * shape
        jac[:, 0] = amplitude * shape2 * 4.0 * u / fwhm
        jac[:, 1] = amplitude * shape2 * 2.0 * u * u / fwhm
    jac[:, 2] = shape
    jac[:, 3] = 1.0
    # Past float range the profile is flat at the baseline.
    jac[~np.isfinite(u), :3] = 0.0


def svd_covariance(jacobian: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Linearized covariance at the optimum, scaled by reduced chi-square."""
    _, singulars, vt = np.linalg.svd(jacobian, full_matrices=False)
    cutoff = np.finfo(float).eps * max(jacobian.shape) * singulars[0]
    kept = singulars > cutoff
    unit_cov = (vt[kept].T * (1.0 / np.square(singulars[kept]))) @ vt[kept]
    dof = residuals.size - jacobian.shape[1]
    scale = float(residuals @ residuals) / dof if dof > 0 else 0.0
    return unit_cov * scale


def svd_levenberg_marquardt(
    wavelengths: np.ndarray, values: np.ndarray, params: np.ndarray, jacobian: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares Lorentzian parameters from ``params``, and their residuals,
    by Marquardt's damped step in the columns of J scaled to unit norm (Moré).

    Every step refills and scales the one N×4 buffer ``jacobian`` in place.
    """
    residuals = lorentzian_profile(wavelengths, *params) - values
    cost = float(residuals @ residuals)
    damping = 1e-3
    for _ in range(fitting._LM_MAX_STEPS):
        svd_jacobian(params, wavelengths, jacobian)
        # np.linalg.norm(jacobian, axis=0) bit for bit, with one N×4 temporary, not two.
        norms = np.sqrt(np.add.reduce(np.square(jacobian), axis=0))
        scale = np.fmax(norms, np.finfo(float).tiny)
        jacobian /= scale
        u, s, vt = np.linalg.svd(jacobian, full_matrices=False)
        projected = u.T @ residuals
        del u  # the N×4 U, freed before the next step refills the Jacobian
        # No step lowers the linearized cost by more than ‖Uᵀr‖².  Once that is
        # below rounding, a step that raises the cost by rounding alone is taken.
        flat = projected @ projected <= fitting._LM_TOLERANCE * cost
        step = -vt.T @ (s * projected / (s * s + damping))
        trial = params + step / scale
        with np.errstate(over="ignore", invalid="ignore"):
            trial_residuals = lorentzian_profile(wavelengths, *trial) - values
            trial_cost = float(trial_residuals @ trial_residuals)
        short = np.linalg.norm(step) <= fitting._LM_TOLERANCE * np.linalg.norm(params * scale)
        taken = trial_cost < cost * (1.0 + fitting._LM_TOLERANCE) if flat else trial_cost < cost
        damping *= 0.1 if taken else 10.0
        if taken or short:
            params, residuals, cost = trial, trial_residuals, trial_cost
            if short:
                return params, residuals
    raise FitConvergenceError(f"Lorentzian fit did not converge in {fitting._LM_MAX_STEPS} steps")


def svd_fit(wavelengths: np.ndarray, values: np.ndarray) -> tuple[dict, float, float]:
    """``fit_lorentzian``'s values and sigmas over the whole of ``wavelengths``
    by the SVD solver, keyed by report name, with its residual RMS and the
    condition number of the column-scaled Jacobian at the optimum."""
    value_exp = math.frexp(float(np.max(np.abs(values))))[1] - 1
    values = np.ldexp(values, -value_exp)
    guess = fitting._initial_lorentzian_guess(wavelengths, values)
    jacobian = np.empty((wavelengths.size, 4))
    params, residuals = svd_levenberg_marquardt(wavelengths, values, np.array(guess), jacobian)
    svd_jacobian(params, wavelengths, jacobian)
    covariance = svd_covariance(jacobian, residuals)
    center, fwhm, amplitude, baseline = params
    fwhm = abs(fwhm)
    q_grad = np.array([1.0 / fwhm, -center / fwhm**2, 0.0, 0.0])
    level_grad = np.array([0.0, 0.0, 1.0, 1.0])
    unit = 2.0**value_exp
    fitted = {
        "center_nm": (center, np.sqrt(covariance[0, 0])),
        "fwhm_nm": (fwhm, np.sqrt(covariance[1, 1])),
        "amplitude": (amplitude * unit, np.sqrt(covariance[2, 2]) * unit),
        "baseline": (baseline * unit, np.sqrt(covariance[3, 3]) * unit),
        "quality_factor": (center / fwhm, np.sqrt(q_grad @ covariance @ q_grad)),
        "extinction" if amplitude < 0.0 else "peak": (
            (baseline + amplitude) * unit, np.sqrt(level_grad @ covariance @ level_grad) * unit
        ),
    }
    rms = np.sqrt(np.mean(np.square(residuals))) * unit
    return fitted, rms, np.linalg.cond(jacobian / np.linalg.norm(jacobian, axis=0))


@st.composite
def lorentzian_lines(draw):
    """A sampled Lorentzian dip or peak on a baseline, with seeded noise, in a
    window 3 to 20 FWHM wide, sampled 12 to 40 times per FWHM."""
    fwhm = draw(st.floats(0.02, 2.0))
    half_window = fwhm * draw(st.floats(1.5, 10.0))
    # The centre stays at least one FWHM inside the window (half of one in
    # the narrowest windows).
    offset = draw(st.floats(-1.0, 1.0)) * min(fwhm, half_window - fwhm)
    depth = draw(st.floats(0.05, 1.0))
    amplitude = depth if draw(st.booleans()) else -depth
    baseline = draw(st.floats(0.0, 1.0)) + (depth if amplitude < 0.0 else 0.0)
    noise = depth * draw(st.floats(1e-4, 0.05))
    step = fwhm / draw(st.integers(12, 40))
    grid = CENTER_NM + np.arange(-half_window, half_window + 0.5 * step, step)
    clean = lorentzian_profile(grid, CENTER_NM + offset, fwhm, amplitude, baseline)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return grid, clean + rng.normal(0.0, noise, size=grid.size)


@pytest.fixture(scope="module")
def default_drop(tmp_path_factory):
    """The default ``ring-spectrum`` drop port, as ``fit`` reads it."""
    out = tmp_path_factory.mktemp("ring")
    assert main(["ring-spectrum", "--out", str(out)]) == 0
    _, data = read_table(out / "drop.csv")
    return out / "drop.csv", data[:, 0], data[:, 1]


class TestSpectrumType:
    def test_rejects_unsorted_wavelengths(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Spectrum(np.array([1.0, 3.0, 2.0]), np.zeros(3), "drop")

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValueError, match="finite"):
            Spectrum(np.array([1.0, 2.0, 3.0]), np.array([0.0, np.nan, 0.0]), "drop")

    def test_rejects_out_of_range_transmission(self):
        with pytest.raises(ValueError, match="transmission"):
            Spectrum(np.array([1.0, 2.0]), np.array([0.0, 1.2]), "through")
        with pytest.raises(ValueError, match="transmission"):
            Spectrum(np.array([1.0, 2.0]), np.array([-0.1, 0.5]), "drop")

    def test_idler_kind_is_unbounded_above(self):
        spectrum = Spectrum(np.array([1.0, 2.0]), np.array([0.0, 7.5]), "idler")
        assert spectrum.size == 2

    def test_allows_noise_headroom(self):
        Spectrum(np.array([1.0, 2.0]), np.array([0.3, 1.04]), "through")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Spectrum(np.array([1.0, 2.0]), np.zeros(2), "add")

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="does not match"):
            Spectrum(np.array([1.0, 2.0, 3.0]), np.zeros(2), "drop")


class TestFitReportType:
    def test_rejects_negative_uncertainty(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FitParameter(1.0, -0.1)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FitReport({"a": FitParameter(1.0, 0.0)}, 0.0, -1, 0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_value(self, value):
        with pytest.raises(ValueError, match="fitted value must be finite"):
            FitParameter(value, 0.1)

    @pytest.mark.parametrize("residual_rms", [-1.0, math.nan, math.inf])
    def test_rejects_bad_residual_rms(self, residual_rms):
        with pytest.raises(ValueError, match="residual_rms"):
            FitReport({"a": FitParameter(1.0, 0.0)}, residual_rms, 1, 0)

    def test_parameters_are_read_only(self):
        report = FitReport({"a": FitParameter(1.0, 0.0)}, 0.0, 1, 0)
        with pytest.raises(TypeError):
            report.parameters["b"] = FitParameter(2.0, 0.0)


class TestLorentzianFit:
    def test_recovers_noiseless_model(self):
        grid, values = synthetic_lorentzian(4.0, 0.01, 0.57, -0.19, 0.2)
        spectrum = Spectrum(grid, values, "through")
        report = fit_lorentzian(spectrum, (CENTER_NM - 4.0, CENTER_NM + 4.0))
        assert report.value("center_nm") == pytest.approx(CENTER_NM, rel=1e-6)
        assert report.value("fwhm_nm") == pytest.approx(0.57, rel=1e-6)
        assert report.value("baseline") == pytest.approx(0.2, rel=1e-6)
        assert report.value("amplitude") == pytest.approx(-0.19, rel=1e-6)
        assert report.residual_rms < 1e-9

    def test_quality_factor_is_center_over_fwhm(self):
        grid, values = synthetic_lorentzian(3.0, 0.05, 0.57, 0.6, 0.1)
        report = fit_lorentzian(
            Spectrum(grid, values, "drop"), (CENTER_NM - 3.0, CENTER_NM + 3.0)
        )
        assert report.value("quality_factor") == pytest.approx(
            report.value("center_nm") / report.value("fwhm_nm"), rel=1e-12
        )

    def test_dip_reports_extinction_peak_reports_peak(self):
        grid, dip = synthetic_lorentzian(3.0, 0.05, 0.57, -0.76, 0.8)
        report = fit_lorentzian(
            Spectrum(grid, dip, "through"), (CENTER_NM - 3.0, CENTER_NM + 3.0)
        )
        assert report.value("extinction") == pytest.approx(0.04, rel=1e-6)
        grid, peak = synthetic_lorentzian(3.0, 0.05, 0.57, 0.6, 0.05)
        report = fit_lorentzian(
            Spectrum(grid, peak, "drop"), (CENTER_NM - 3.0, CENTER_NM + 3.0)
        )
        assert report.value("peak") == pytest.approx(0.65, rel=1e-6)

    def test_fitted_ring_quality_in_published_band(self):
        grid = centered_points(CENTER_NM, 6.0, 0.05)
        values = drop_spectrum(grid, CENTER_NM, GEOMETRY, COUPLING)
        report = fit_lorentzian(
            Spectrum(grid, values, "drop"), (CENTER_NM - 3.0, CENTER_NM + 3.0)
        )
        assert 2500.0 <= report.value("quality_factor") <= 3000.0

    def test_through_port_extinction_recovered(self):
        grid = centered_points(CENTER_NM, 6.0, 0.05)
        values = through_spectrum(grid, CENTER_NM, GEOMETRY, COUPLING)
        report = fit_lorentzian(
            Spectrum(grid, values, "through"), (CENTER_NM - 3.0, CENTER_NM + 3.0)
        )
        assert report.value("extinction") == pytest.approx(0.04, abs=0.005)
        assert report.value("extinction") < 0.05

    def test_flags_second_resonance(self):
        grid = centered_points(CENTER_NM, 8.0, 0.05)
        values = (
            0.8
            + lorentzian_profile(grid, CENTER_NM - 2.0, 0.57, -0.7, 0.0)
            + lorentzian_profile(grid, CENTER_NM + 2.0, 0.57, -0.7, 0.0)
        )
        spectrum = Spectrum(grid, values, "through")
        with pytest.raises(ValueError, match="more than one resonance"):
            fit_lorentzian(spectrum, (CENTER_NM - 4.0, CENTER_NM + 4.0))

    def test_rejects_coarse_sampling(self):
        fwhm = CENTER_NM / Q_TARGET
        grid, values = synthetic_lorentzian(3.0, 0.2, fwhm, 0.6, 0.1)
        with pytest.raises(ValueError, match="across the fitted linewidth"):
            fit_lorentzian(
                Spectrum(grid, values, "drop"),
                (CENTER_NM - 3.0, CENTER_NM + 3.0),
            )

    def test_rejects_empty_or_reversed_window(self):
        grid, values = synthetic_lorentzian(3.0, 0.05, 0.57, 0.6, 0.1)
        spectrum = Spectrum(grid, values, "drop")
        with pytest.raises(ValueError, match="window holds 0 samples"):
            fit_lorentzian(spectrum, (CENTER_NM + 1.0, CENTER_NM - 1.0))
        with pytest.raises(ValueError, match="samples"):
            fit_lorentzian(spectrum, (CENTER_NM + 10.0, CENTER_NM + 11.0))

    def test_noisy_uncertainties_cover_truth(self):
        grid, clean = synthetic_lorentzian(3.0, 0.05, 0.57, 0.6, 0.1)
        rng = np.random.default_rng(11)
        noisy = clean + rng.normal(0.0, 0.006, size=grid.size)
        report = fit_lorentzian(
            Spectrum(grid, noisy, "drop"), (CENTER_NM - 3.0, CENTER_NM + 3.0)
        )
        center, fwhm = report.parameters["center_nm"], report.parameters["fwhm_nm"]
        assert center.sigma > 0.0
        assert abs(center.value - CENTER_NM) < 5.0 * center.sigma
        assert abs(fwhm.value - 0.57) < 5.0 * fwhm.sigma

    def test_point_accounting(self):
        grid, values = synthetic_lorentzian(4.0, 0.05, 0.57, 0.6, 0.1)
        spectrum = Spectrum(grid, values, "drop")
        report = fit_lorentzian(spectrum, (CENTER_NM - 2.0, CENTER_NM + 2.0))
        assert report.points_used + report.points_excluded == spectrum.size
        assert report.points_excluded > 0

    def test_matches_least_squares(self, default_drop):
        """Same optimum as scipy's trust-region least squares at 1e-13
        tolerances, on the default drop port and criterion 8's 200 noisy dips
        (scipy starts from the true line, or the ring's target Q for the drop
        port): each parameter within 1e-5 of its sigma, a cost no larger, and
        a column-scaled gradient at zero to 1e-8."""
        from scipy.optimize import least_squares

        _, grid, values = default_drop
        start = (CENTER_NM, CENTER_NM / Q_TARGET, np.ptp(values), np.min(values))
        cases = [(grid, values, start)]
        fwhm, amplitude = CENTER_NM / Q_TARGET, 0.6382200814494171
        grid, clean = synthetic_lorentzian(3.0, 0.05, fwhm, amplitude, 0.2)
        for seed in range(200):
            noise = np.random.default_rng(seed).normal(0.0, 0.01 * amplitude, size=grid.size)
            cases.append((grid, clean + noise, (CENTER_NM, fwhm, amplitude, 0.2)))
        names = ("center_nm", "fwhm_nm", "amplitude", "baseline")
        for grid, values, start in cases:
            report = fit_lorentzian(Spectrum(grid, values, "drop"), (grid[0], grid[-1]))
            ours = np.array([report.value(name) for name in names])
            sigmas = np.array([report.parameters[name].sigma for name in names])
            reference = least_squares(
                lambda p: lorentzian_profile(grid, *p) - values,
                start,
                jac=lambda p: lorentzian_jacobian(grid, *p),
                method="trf",
                xtol=1e-13,
                ftol=1e-13,
                gtol=1e-13,
                max_nfev=10_000,
            )
            assert reference.success
            reference.x[1] = abs(reference.x[1])
            assert np.all(np.abs(ours - reference.x) <= 1e-5 * sigmas)
            residuals = lorentzian_profile(grid, *ours) - values
            assert residuals @ residuals <= (reference.fun @ reference.fun) * (1.0 + 1e-12)
            jac = lorentzian_jacobian(grid, *ours)
            gradient = np.abs(jac.T @ residuals) / (
                np.linalg.norm(jac, axis=0) * np.linalg.norm(residuals)
            )
            assert np.max(gradient) <= 1e-8

    def test_rejects_featureless_window(self):
        grid = CENTER_NM + 0.01 * np.arange(-84, 85)
        with pytest.raises(ValueError, match="no feature"):
            fit_lorentzian(Spectrum(grid, np.full(grid.size, 0.5), "idler"), (grid[0], grid[-1]))

    def test_guess_width_past_float_range_falls_back_to_five_steps(self):
        # No sample drops below half maximum, so the half-maximum crossings
        # are the window's edges, 3e308 nm apart: past float range.
        wavelengths = np.arange(-10, 11) * 1.5e307
        values = np.where(wavelengths < 0.0, 0.0, 1.0)
        values[10] = 1.5
        _, fwhm, _, _ = fitting._initial_lorentzian_guess(wavelengths, values)
        assert fwhm == pytest.approx(5.0 * 1.5e307, rel=1e-12)

    def test_zero_width_fit_is_a_convergence_failure(self, monkeypatch):
        # No spectrum is known to make the optimizer land on a width of
        # exactly zero, so it is stubbed to; the quality factor would
        # divide by it.
        grid = CENTER_NM + 0.01 * np.arange(-84, 85)
        values = lorentzian_profile(grid, CENTER_NM, 0.5, 1.0, 0.0)

        def collapse(wavelengths, values, params):
            params = params.copy()
            params[1] = -0.0
            return params, np.zeros(wavelengths.size), 0.0

        monkeypatch.setattr(fitting, "_levenberg_marquardt", collapse)
        with pytest.raises(FitConvergenceError, match="zero width"):
            fit_lorentzian(Spectrum(grid, values, "idler"), (grid[0], grid[-1]))

    def test_covariance_skips_zero_singular_values(self):
        # A parameter the model does not depend on has variance 0, computed
        # without dividing by its zero eigenvalue.
        jacobian = np.column_stack([np.arange(6.0), np.ones(6), np.zeros(6)])
        covariance = fitting._unit_covariance(jacobian.T @ jacobian)
        assert np.all(np.isfinite(covariance))
        assert covariance[2, 2] == 0.0
        assert covariance[0, 0] > 0.0 and covariance[1, 1] > 0.0

    def test_covariance_splits_identical_columns(self):
        # Two parameters the model sees only as a sum: the pseudo-inverse over
        # the one rounding-level eigenvalue left out, as the SVD gives it.
        jacobian = np.column_stack([np.arange(6.0), np.arange(6.0), np.ones(6)])
        residuals = np.full(6, 0.1)
        covariance = fitting._unit_covariance(jacobian.T @ jacobian) * (residuals @ residuals / 3)
        assert np.all(np.isfinite(covariance))
        assert np.all(np.diag(covariance) > 0.0)
        assert covariance[0, 0] == pytest.approx(covariance[1, 1], rel=1e-12)
        np.testing.assert_allclose(
            covariance, svd_covariance(jacobian, residuals), rtol=1e-12, atol=0.0
        )

    @settings(max_examples=200, deadline=None)
    @given(lorentzian_lines())
    def test_matches_svd_solver(self, line):
        """The eigen-decomposition solver against the SVD one it replaced, on
        dips and peaks 3 to 20 FWHM wide: every value within 1e-9 of the SVD
        solver's sigma for it, every sigma and the residual RMS within a
        relative 1e-9."""
        grid, values = line
        expected, rms, _ = svd_fit(grid, values)
        report = fit_lorentzian(Spectrum(grid, values, "idler"), (grid[0], grid[-1]))
        assert report.parameters.keys() == expected.keys()
        for name, (value, sigma) in expected.items():
            assert abs(report.value(name) - value) <= 1e-9 * sigma, name
            assert report.parameters[name].sigma == pytest.approx(sigma, rel=1e-9), name
        assert report.residual_rms == pytest.approx(rms, rel=1e-9)

    def test_exhausted_budget_raises(self, default_drop, monkeypatch, tmp_path):
        path, grid, values = default_drop
        monkeypatch.setattr(fitting, "_LM_MAX_STEPS", 1)
        with pytest.raises(FitConvergenceError, match="did not converge"):
            fit_lorentzian(Spectrum(grid, values, "drop"), (grid[0], grid[-1]))
        assert main(["fit", str(path), "--model", "lorentzian", "--out", str(tmp_path)]) == 3


    def test_trace_fit_peaks_below_eight_and_a_half_mb(self, noisy_drop):
        # The 60,001 x 4 Jacobian is 1.9 MB; one buffer serves every step.
        _, data = read_table(noisy_drop)
        spectrum = Spectrum(data[:, 0], data[:, 1], "drop")
        window = (data[0, 0], data[-1, 0])
        report, peak = peak_allocation(lambda: fit_lorentzian(spectrum, window))
        assert report.points_used == 60001
        assert peak <= 8.5e6

def exact_sums(xs, ys, weights) -> tuple[Fraction, ...]:
    """Exact weighted sums Σw, Σwx, Σwy, Σwx² and Σwxy of the given floats."""
    x = [Fraction(float(v)) for v in xs]
    y = [Fraction(float(v)) for v in ys]
    w = [Fraction(float(v)) for v in weights]
    s0 = sum(w)
    sx = sum(wi * xi for wi, xi in zip(w, x))
    sy = sum(wi * yi for wi, yi in zip(w, y))
    sxx = sum(wi * xi * xi for wi, xi in zip(w, x))
    sxy = sum(wi * xi * yi for wi, xi, yi in zip(w, x, y))
    return s0, sx, sy, sxx, sxy


def exact_line(xs, ys, weights) -> tuple[Fraction, Fraction]:
    """Exact weighted least-squares slope and intercept of the given floats."""
    s0, sx, sy, sxx, sxy = exact_sums(xs, ys, weights)
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
    powers, _ = steady_state_roundtrip(CONFIG.gain, CONFIG.budget, currents, tpa_db_per_mw=0.02)
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


@st.composite
def exact_lasing_lines(draw):
    """Noise-free lines ``slope·(I − threshold)`` on 4 to 12 evenly stepped
    currents above a threshold that is often exactly 0, with current steps
    and slopes drawn across orders of magnitude."""
    n = draw(st.integers(min_value=4, max_value=12))
    step = 10.0 ** draw(st.integers(min_value=-6, max_value=6))
    slope = 10.0 ** draw(st.integers(min_value=-9, max_value=9)) * draw(st.floats(1.0, 10.0))
    threshold = step * draw(st.integers(min_value=-3, max_value=0))
    currents = step * np.arange(1.0, n + 1.0)
    return currents, slope * (currents - threshold)


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

    def test_four_point_exact_line(self):
        currents = np.array([100.0, 110.0, 120.0, 130.0])
        report = fit_lasing_curve(currents, 0.02 * (currents - 90.0))
        assert report.value("threshold_ma") == pytest.approx(90.0, abs=1e-10)
        assert report.parameters["threshold_ma"].sigma < 1e-12

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
            assert scaled.parameters[name].sigma == math.ldexp(
                base.parameters[name].sigma, exponent
            )
        assert scaled.residual_rms == math.ldexp(base.residual_rms, exponent)
        assert scaled.value("threshold_ma") == base.value("threshold_ma")
        assert scaled.parameters["threshold_ma"].sigma == base.parameters["threshold_ma"].sigma
        assert scaled.points_used == base.points_used

    def test_peak_power_at_float_max(self):
        # A peak at or above 2**1023 mW still has a power-of-two unit.
        currents = np.arange(100.0, 151.0, 10.0)
        powers = np.ldexp(currents, 1016)
        assert powers.max() >= math.ldexp(1.0, 1023)
        report = fit_lasing_curve(currents, powers)
        assert report.value("slope_mw_per_ma") == pytest.approx(math.ldexp(1.0, 1016), rel=1e-12)
        assert report.value("threshold_ma") == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("exponent", [-990, -3, 3, 990])
    def test_current_scale_is_exact(self, exponent):
        # Scaling the currents (and the cutoff) by a power of two scales the
        # threshold by that factor and the slope by its inverse, bit for bit,
        # even where squared currents would leave float range.
        powers, _ = output_power_curve(self.GAIN, self.BUDGET, self.CURRENTS)
        base = fit_lasing_curve(self.CURRENTS, powers, exclusion_cutoff_ma=130.0)
        scaled = fit_lasing_curve(
            np.ldexp(self.CURRENTS, exponent),
            powers,
            exclusion_cutoff_ma=math.ldexp(130.0, exponent),
        )
        assert scaled.value("slope_mw_per_ma") == math.ldexp(
            base.value("slope_mw_per_ma"), -exponent
        )
        assert scaled.parameters["slope_mw_per_ma"].sigma == math.ldexp(
            base.parameters["slope_mw_per_ma"].sigma, -exponent
        )
        assert scaled.value("threshold_ma") == math.ldexp(base.value("threshold_ma"), exponent)
        assert scaled.parameters["threshold_ma"].sigma == math.ldexp(
            base.parameters["threshold_ma"].sigma, exponent
        )
        assert scaled.value("intercept_mw") == base.value("intercept_mw")
        assert scaled.parameters["intercept_mw"].sigma == base.parameters["intercept_mw"].sigma
        assert scaled.residual_rms == base.residual_rms
        assert scaled.points_used == base.points_used

    def test_rejects_all_dark_data(self):
        with pytest.raises(ValueError, match="below threshold"):
            fit_lasing_curve(self.CURRENTS, np.zeros_like(self.CURRENTS))

    def test_rejects_unequal_arrays(self):
        with pytest.raises(ValueError, match="equal-length 1-D arrays"):
            fit_lasing_curve(self.CURRENTS, np.zeros(self.CURRENTS.size - 1))

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError, match="four points"):
            fit_lasing_curve(
                np.array([100.0, 110.0, 120.0, 130.0]),
                np.array([0.2, 0.4, 0.6, 0.8]),
                exclusion_cutoff_ma=115.0,
            )

    def test_threshold_sigma_matches_exact(self):
        # The delta-method σ of -b/s, gᵀCg with g = (b/s², -1/s) and C the
        # (slope s, intercept b) covariance χ²/(n - 2)·[[n, -Σx], [-Σx, Σx²]]/det,
        # in exact arithmetic on the same floats.
        rng = np.random.default_rng(23)
        currents = np.arange(95.0, 131.0, 2.5)
        powers = 0.02 * (currents - 90.0) + rng.normal(0.0, 0.01, size=currents.size)
        report = fit_lasing_curve(currents, powers)
        assert report.points_excluded == 0
        weights = np.ones(currents.size)
        s0, sx, _, sxx, _ = exact_sums(currents, powers, weights)
        slope, intercept = exact_line(currents, powers, weights)
        chi2 = sum(
            (Fraction(float(y)) - slope * Fraction(float(x)) - intercept) ** 2
            for x, y in zip(currents, powers)
        )
        scale = chi2 / (currents.size - 2) / (s0 * sxx - sx * sx)
        g_slope, g_intercept = intercept / slope**2, -1 / slope
        variance = scale * (g_slope**2 * s0 - 2 * g_slope * g_intercept * sx + g_intercept**2 * sxx)
        sigma = report.parameters["threshold_ma"].sigma
        assert sigma == pytest.approx(math.sqrt(variance), rel=1e-12)

    @settings(deadline=None, max_examples=200)
    @given(line=exact_lasing_lines())
    @example(line=(np.arange(1.0, 5.0), np.arange(1.0, 5.0)))
    def test_no_negative_zero(self, line):
        report = fit_lasing_curve(*line)
        for parameter in report.parameters.values():
            for number in (parameter.value, parameter.sigma):
                assert number != 0.0 or math.copysign(1.0, number) == 1.0

    def test_noisy_threshold_uncertainty(self):
        rng = np.random.default_rng(23)
        currents = np.arange(95.0, 131.0, 2.5)
        powers = 0.02 * (currents - 90.0) + rng.normal(0.0, 0.01, size=currents.size)
        report = fit_lasing_curve(currents, powers)
        threshold = report.parameters["threshold_ma"]
        assert threshold.sigma > 0.0
        assert abs(threshold.value - 90.0) < 5.0 * threshold.sigma
