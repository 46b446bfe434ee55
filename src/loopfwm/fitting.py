"""Least-squares reduction of simulated spectra and lasing curves.

The module provides three fitters:

* :func:`fit_lorentzian` — a Lorentzian-plus-baseline resonance fit of the
  center, linewidth, and quality factor of a sampled port spectrum, by a
  Levenberg–Marquardt whose damped step solves the 4×4 normal equations
  JᵀJ, scaled to unit diagonal, through one eigen-decomposition.
* :func:`fit_lasing_curve` — a linear fit of output power versus drive
  current with iterative hinge detection, so below-threshold points are
  excluded automatically and the threshold current is reported as the
  x-intercept.
* :func:`weighted_line` — the package's one weighted straight-line fit,
  computed about the weighted mean; the lasing fit, the joint-spectrum
  ridge fit and the four-wave-mixing log-log slope all use it.

All fitters are deterministic: initial guesses are derived from the data
by fixed rules (extremum position, half-depth crossings, window-edge
baseline) rather than random restarts, and ties are broken toward the
smallest wavelength.  Every reported parameter, fitted or derived, gets its
σ = sqrt(gᵀCg) from its gradient g through one helper, C being the linearized
covariance at the optimum scaled by the reduced chi-square (for the Lorentzian,
from the same eigen-decomposition of JᵀJ), and no report prints a negative zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

SPECTRUM_KINDS = ("through", "drop", "idler")

# Transmission-type spectra may exceed unity slightly under additive
# noise; anything past this headroom indicates mislabeled data.
_TRANSMISSION_CEILING = 1.05

# A window is considered to hold more than one resonance when a sample
# farther than this many linewidths from the main extremum still rises
# above the fraction below of the extremum depth.  A single Lorentzian
# tail at that distance retains about 10% of its depth, so the test has
# a wide margin against sampling noise.
_ISOLATION_HALFWIDTHS = 1.5
_ISOLATION_FRACTION = 0.7

_MIN_POINTS_ACROSS_FWHM = 10
_HINGE_FLOOR_FRACTION = 0.05

# The Lorentzian fit's budget of trial steps, and its relative tolerance.
_LM_MAX_STEPS = 100
_LM_TOLERANCE = 1e-13


class FitConvergenceError(RuntimeError):
    """Raised when a nonlinear fit exhausts its iteration budget."""


@dataclass(frozen=True)
class Spectrum:
    """A sampled single-valued spectrum and the port it came from.

    ``kind`` records which port or channel the samples came from:
    ``"through"`` and ``"drop"`` are transmissions (bounded by a 5%
    headroom above unity), while ``"idler"`` carries spectral power and
    is only required to be finite.
    """

    wavelengths_nm: np.ndarray
    values: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        wavelengths = np.asarray(self.wavelengths_nm, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "wavelengths_nm", wavelengths)
        object.__setattr__(self, "values", values)
        if wavelengths.ndim != 1 or wavelengths.size < 2:
            raise ValueError("wavelengths_nm must be a 1-D array of at least 2 samples")
        if values.shape != wavelengths.shape:
            raise ValueError(
                f"values shape {values.shape} does not match "
                f"wavelengths shape {wavelengths.shape}"
            )
        if not np.all(np.isfinite(wavelengths)):
            raise ValueError("wavelengths_nm must be finite")
        if not np.all(wavelengths[1:] > wavelengths[:-1]):
            raise ValueError("wavelengths_nm must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if self.kind not in SPECTRUM_KINDS:
            raise ValueError(f"kind must be one of {SPECTRUM_KINDS}, got {self.kind!r}")
        if self.kind in ("through", "drop"):
            low = float(values.min())
            high = float(values.max())
            if low < 0.0 or high > _TRANSMISSION_CEILING:
                raise ValueError(
                    f"{self.kind} transmission values must lie in "
                    f"[0, {_TRANSMISSION_CEILING}], got range [{low:.4g}, {high:.4g}]"
                )

    @property
    def size(self) -> int:
        return int(self.wavelengths_nm.size)


@dataclass(frozen=True)
class FitParameter:
    """A fitted value with its one-sigma uncertainty."""

    value: float
    sigma: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.value):
            raise ValueError(f"fitted value must be finite, got {self.value}")
        if not (np.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"uncertainty must be nonnegative, got {self.sigma}")


@dataclass(frozen=True)
class FitReport:
    """Named parameter estimates plus bookkeeping for one fit."""

    parameters: Mapping[str, FitParameter]
    residual_rms: float
    points_used: int
    points_excluded: int
    model: str = field(default="")

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameters", MappingProxyType(dict(self.parameters)))
        if self.points_used < 0 or self.points_excluded < 0:
            raise ValueError("point counts must be nonnegative")
        if not (np.isfinite(self.residual_rms) and self.residual_rms >= 0.0):
            raise ValueError(f"residual_rms must be nonnegative, got {self.residual_rms}")

    def value(self, name: str) -> float:
        return self.parameters[name].value

    def sigma(self, name: str) -> float:
        return self.parameters[name].sigma


def lorentzian_profile(
    wavelengths_nm: np.ndarray,
    center_nm: float,
    fwhm_nm: float,
    amplitude: float,
    baseline: float,
) -> np.ndarray:
    """Lorentzian on a constant baseline; ``amplitude`` < 0 is a dip."""
    with np.errstate(over="ignore"):
        detuning = 2.0 * (np.asarray(wavelengths_nm, dtype=float) - center_nm) / fwhm_nm
        return baseline + amplitude / (1.0 + detuning * detuning)


def _normal_equations(
    params: np.ndarray, wavelengths: np.ndarray, residuals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """JᵀJ and Jᵀr of the profile's Jacobian at ``params``, summed over its 4×N
    columns by ``np.einsum``'s own loops: no BLAS call runs over the N points."""
    center, fwhm, amplitude, _ = params
    columns = np.empty((4, wavelengths.size))
    with np.errstate(over="ignore", invalid="ignore"):
        u = 2.0 * (wavelengths - center) / fwhm
        shape = 1.0 / (1.0 + u * u)
        shape2 = shape * shape
        columns[0] = amplitude * shape2 * 4.0 * u / fwhm
        columns[1] = amplitude * shape2 * 2.0 * u * u / fwhm
    columns[2] = shape
    columns[3] = 1.0
    # Past float range the profile is flat at the baseline.
    columns[:3, ~np.isfinite(u)] = 0.0
    return np.einsum("in,jn->ij", columns, columns), np.einsum("in,n->i", columns, residuals)


def _scaled_eigen(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J's column norms ``sqrt(diag(JᵀJ))`` (Moré) and the eigenpairs of JᵀJ
    scaled by them to unit diagonal, less any eigenvalue under ``4·eps·λ_max``:
    ``eigh``'s rounding error on a 4×4, so it cannot be told from zero."""
    # A zero column keeps scale tiny; dividing twice avoids 0/tiny² = nan.
    scale = np.fmax(np.sqrt(np.diag(gram)), np.finfo(float).tiny)
    eigenvalues, vectors = np.linalg.eigh(gram / scale / scale[:, None])
    kept = eigenvalues > 4.0 * np.finfo(float).eps * eigenvalues[-1]
    return scale, eigenvalues[kept], vectors[:, kept]


def _unit_covariance(gram: np.ndarray) -> np.ndarray:
    """The pseudo-inverse of JᵀJ over the eigenpairs :func:`_scaled_eigen`
    keeps, so a parameter the model ignores gets variance 0."""
    scale, eigenvalues, vectors = _scaled_eigen(gram)
    return (vectors / eigenvalues) @ vectors.T / scale / scale[:, None]


def _levenberg_marquardt(
    wavelengths: np.ndarray, values: np.ndarray, params: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Least-squares Lorentzian parameters from ``params``, their residuals and
    cost, by Marquardt's damped step ``−V·(Vᵀg)/(λ + μ)`` on the scaled normal
    equations ``V·diag(λ)·Vᵀ`` and gradient g of :func:`_scaled_eigen` (Moré)."""
    residuals = lorentzian_profile(wavelengths, *params) - values
    cost = float(np.einsum("n,n->", residuals, residuals))
    damping = 1e-3
    for _ in range(_LM_MAX_STEPS):
        gram, gradient = _normal_equations(params, wavelengths, residuals)
        scale, eigenvalues, vectors = _scaled_eigen(gram)
        projected = vectors.T @ (gradient / scale)
        # No step lowers the linearized cost by more than ‖Uᵀr‖² = Σ(Vᵀg)²/λ.  Once that
        # is below rounding, a step that raises the cost by rounding alone is taken.
        flat = projected @ (projected / eigenvalues) <= _LM_TOLERANCE * cost
        step = -vectors @ (projected / (eigenvalues + damping))
        trial = params + step / scale
        with np.errstate(over="ignore", invalid="ignore"):
            trial_residuals = lorentzian_profile(wavelengths, *trial) - values
            trial_cost = float(np.einsum("n,n->", trial_residuals, trial_residuals))
        short = np.linalg.norm(step) <= _LM_TOLERANCE * np.linalg.norm(params * scale)
        taken = trial_cost < cost * (1.0 + _LM_TOLERANCE) if flat else trial_cost < cost
        damping *= 0.1 if taken else 10.0
        if taken or short:
            params, residuals, cost = trial, trial_residuals, trial_cost
            if short:
                return params, residuals, cost
    raise FitConvergenceError(f"Lorentzian fit did not converge in {_LM_MAX_STEPS} steps")


def _initial_lorentzian_guess(
    wavelengths: np.ndarray, values: np.ndarray
) -> tuple[float, float, float, float]:
    """Deterministic starting point: edge baseline, extremum, half crossings.
    Raises ValueError if the window holds more than one resonance."""
    n_edge = max(1, round(0.1 * wavelengths.size))
    baseline = 0.5 * (float(values[:n_edge].mean()) + float(values[-n_edge:].mean()))
    deviation = values - baseline
    extremum = int(np.argmax(np.abs(deviation)))
    amplitude = float(deviation[extremum])
    center = float(wavelengths[extremum])

    half = 0.5 * abs(amplitude)
    magnitude = np.abs(deviation)
    # The nearest samples below half maximum on either side of the extremum.
    below = np.flatnonzero(magnitude < half)
    side = int(np.searchsorted(below, extremum))
    left, right = float(wavelengths[0]), float(wavelengths[-1])
    if side > 0:
        pair = below[side - 1] + np.array([0, 1])
        left = float(np.interp(half, magnitude[pair], wavelengths[pair]))
    if side < below.size:
        pair = below[side] - np.array([0, 1])
        right = float(np.interp(half, magnitude[pair], wavelengths[pair]))
    fwhm = right - left
    if not (np.isfinite(fwhm) and fwhm > 0.0):
        fwhm = 5.0 * float(np.median(np.diff(wavelengths)))
    # A window wider than float range puts far samples an infinite distance
    # away, which still counts them as outside.
    with np.errstate(over="ignore"):
        outside = np.abs(wavelengths - center) > _ISOLATION_HALFWIDTHS * fwhm
    if np.any(magnitude[outside] >= _ISOLATION_FRACTION * abs(amplitude)):
        raise ValueError(
            "fit window holds more than one resonance-scale feature; "
            "narrow the window to isolate a single line"
        )
    return center, fwhm, amplitude, baseline


def fit_lorentzian(
    spectrum: Spectrum,
    window_nm: tuple[float, float],
) -> FitReport:
    """Fit a Lorentzian plus constant baseline inside a wavelength window.

    Parameters
    ----------
    spectrum:
        Sampled data; only points with wavelength inside ``window_nm``
        participate in the fit.
    window_nm:
        Inclusive ``(start, stop)`` range that must isolate exactly one
        resonance with at least 10 samples across its width.

    Returns
    -------
    FitReport
        With parameters ``center_nm``, ``fwhm_nm``, ``amplitude``,
        ``baseline``, ``quality_factor`` (center/FWHM), and the modeled
        level at line center, named ``extinction`` for a dip or ``peak``
        for a peak.

    Raises
    ------
    ValueError
        If the window is empty, holds no feature or several resonances,
        or samples the line too coarsely.
    FitConvergenceError
        If the optimizer exhausts its iteration budget.
    """
    start, stop = float(window_nm[0]), float(window_nm[1])
    if not stop > start:
        raise ValueError(f"window must satisfy start < stop, got ({start}, {stop})")
    mask = (spectrum.wavelengths_nm >= start) & (spectrum.wavelengths_nm <= stop)
    wavelengths = spectrum.wavelengths_nm[mask]
    values = spectrum.values[mask]
    if wavelengths.size < _MIN_POINTS_ACROSS_FWHM:
        raise ValueError(
            f"window holds {wavelengths.size} samples; "
            f"at least {_MIN_POINTS_ACROSS_FWHM} are required"
        )
    if np.all(values == values[0]):
        raise ValueError("fit window holds no feature: every value equals the baseline")

    # An exact power-of-two unit for the values keeps squared residuals in range.
    value_exp = math.frexp(float(np.max(np.abs(values))))[1] - 1
    values = np.ldexp(values, -value_exp)
    guess = _initial_lorentzian_guess(wavelengths, values)

    params, residuals, cost = _levenberg_marquardt(wavelengths, values, np.array(guess))
    center, fwhm, amplitude, baseline = params
    fwhm = abs(float(fwhm))
    if fwhm == 0.0:
        raise FitConvergenceError("Lorentzian fit collapsed to zero width")
    across = int(np.count_nonzero(np.abs(wavelengths - center) <= 0.5 * fwhm))
    if across < _MIN_POINTS_ACROSS_FWHM:
        raise ValueError(
            f"only {across} samples fall across the fitted linewidth "
            f"({fwhm:.4g} nm); at least {_MIN_POINTS_ACROSS_FWHM} are required"
        )
    gram, _ = _normal_equations(params, wavelengths, residuals)
    covariance = _unit_covariance(gram) * (cost / (residuals.size - 4))
    fitted = np.eye(4)
    level = "extinction" if amplitude < 0.0 else "peak"
    estimates = {
        "center_nm": (center, fitted[0], 0),
        "fwhm_nm": (fwhm, fitted[1], 0),
        "amplitude": (amplitude, fitted[2], value_exp),
        "baseline": (baseline, fitted[3], value_exp),
        "quality_factor": (center / fwhm, np.array([1.0 / fwhm, -center / fwhm**2, 0.0, 0.0]), 0),
        level: (baseline + amplitude, fitted[2] + fitted[3], value_exp),
    }
    used, excluded = wavelengths.size, spectrum.size - wavelengths.size
    return _report("lorentzian", estimates, covariance, residuals, value_exp, used, excluded)


def weighted_line(
    xs: np.ndarray, ys: np.ndarray, weights: np.ndarray
) -> tuple[float, float, np.ndarray]:
    """Weighted least-squares line ``y = slope*x + intercept``.

    The sums are taken about the weighted mean ``x̄``, so an offset far
    larger than the spread of ``xs`` (a threshold zoom at 90 mA over a
    few microamps) costs no digits.  The covariance of
    ``(slope, intercept)`` is ``[[1, -x̄], [-x̄, Sxx/Σw + x̄²]] / Sxx``,
    with ``Sxx = Σw(x - x̄)²``, scaled by the reduced chi-square; an exact
    two-point line reports zero covariance.

    Raises
    ------
    ValueError
        If the arrays are not equal-length 1-D and finite, hold fewer
        than two points, the weights are negative or all zero, or the
        x values carry no spread.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if xs.ndim != 1 or ys.shape != xs.shape or weights.shape != xs.shape:
        raise ValueError(
            f"xs, ys and weights must be equal-length 1-D arrays, "
            f"got {xs.shape}, {ys.shape}, {weights.shape}"
        )
    if xs.size < 2:
        raise ValueError(f"at least 2 points are required, got {xs.size}")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("xs and ys must be finite")
    total = np.sum(weights)
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0) or not total > 0.0:
        raise ValueError("weights must be finite, nonnegative, and not all zero")
    x_mean = np.sum(weights * xs) / total
    y_mean = np.sum(weights * ys) / total
    dx = xs - x_mean
    sxx = np.sum(weights * dx * dx)
    if not (np.isfinite(sxx) and sxx > 0.0):
        raise ValueError("x values carry no spread; a line cannot be determined")
    slope = float(np.sum(weights * dx * (ys - y_mean)) / sxx)
    intercept = float(y_mean - slope * x_mean)
    residuals = (ys - y_mean) - slope * dx
    dof = xs.size - 2
    scale = float(np.sum(weights * residuals * residuals)) / dof if dof > 0 else 0.0
    covariance = np.array([[1.0, -x_mean], [-x_mean, sxx / total + x_mean * x_mean]])
    return slope, intercept, covariance * (scale / sxx)


def _unscaled(value: float, exponent: int) -> float:
    """``value * 2**exponent``, exact; inf out of range, which a report rejects."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(value, exponent))


def _report(
    model: str, estimates: Mapping[str, tuple[float, np.ndarray, int]], covariance: np.ndarray,
    residuals: np.ndarray, residual_exp: int, used: int, excluded: int,
) -> FitReport:
    """Each estimate ``name: (value, gradient g, exp)`` in fit units gets σ = sqrt(gᵀCg);
    both are unscaled by ``2**exp``, and + 0.0 maps -0.0 to 0.0 and keeps every other float."""
    parameters = {}
    for name, (value, gradient, exp) in estimates.items():
        sigma = np.sqrt(max(gradient @ covariance @ gradient, 0.0))
        parameters[name] = FitParameter(_unscaled(value, exp) + 0.0, _unscaled(sigma, exp) + 0.0)
    rms = _unscaled(np.sqrt(np.mean(np.square(residuals))), residual_exp)
    return FitReport(parameters, rms, used, excluded, model)


def fit_lasing_curve(
    currents_ma: np.ndarray,
    powers_mw: np.ndarray,
    exclusion_cutoff_ma: float | None = None,
) -> FitReport:
    """Extract slope and threshold current from a lasing curve.

    Points above ``exclusion_cutoff_ma`` are dropped first (the caller's
    means of removing nonlinear-rollover data), then below-threshold
    points are removed by iterative hinge detection: fit a line, drop
    points whose measured power falls under 5% of the largest predicted
    power, and refit until the included set stops changing.  Exclusions
    are irreversible, so the loop terminates after at most one pass per
    point.  The threshold current is the fitted x-intercept.

    Raises
    ------
    ValueError
        If every point sits below threshold, or fewer than four points
        survive the exclusions.
    """
    currents = np.asarray(currents_ma, dtype=float)
    powers = np.asarray(powers_mw, dtype=float)
    if currents.shape != powers.shape or currents.ndim != 1:
        raise ValueError(
            f"currents and powers must be equal-length 1-D arrays, "
            f"got {currents.shape}, {powers.shape}"
        )
    if not (np.all(np.isfinite(currents)) and np.all(np.isfinite(powers))):
        raise ValueError("currents and powers must be finite")
    total = currents.size
    if exclusion_cutoff_ma is not None:
        kept = currents <= float(exclusion_cutoff_ma)
        currents, powers = currents[kept], powers[kept]
    if currents.size < 4:
        raise ValueError(
            "at least four points are required below the high-current cutoff"
        )
    if float(powers.max()) <= 0.0:
        raise ValueError("all points are below threshold; no lasing slope to fit")
    # Fit in power-of-two units of current and power at or just below their
    # peaks, so every scaled value lies in (-2, 2).  The rescaling is exact,
    # so it changes no result, and it keeps squared currents, powers and
    # slopes in floating-point range for any finite data.  The power unit
    # follows the points still in the fit, so an outlier the hinge drops
    # costs the others no digits.
    current_exp = math.frexp(float(np.max(np.abs(currents))))[1] - 1
    currents = np.ldexp(currents, -current_exp)
    weights = np.ones_like(currents)
    included = np.ones(currents.size, dtype=bool)
    for _ in range(currents.size):
        power_exp = math.frexp(float(np.max(np.abs(powers[included]))))[1] - 1
        with np.errstate(over="ignore"):  # only a dropped outlier can overflow
            scaled = np.ldexp(powers, -power_exp)
        slope, intercept, covariance = weighted_line(
            currents[included], scaled[included], weights[included]
        )
        predicted = slope * currents[included] + intercept
        floor = _HINGE_FLOOR_FRACTION * float(predicted.max())
        drop = included & (scaled < floor)
        if not np.any(drop[included]):
            break
        included &= ~drop
        if np.count_nonzero(included) < 4:
            raise ValueError(
                "fewer than four points remain above threshold after hinge exclusion"
            )
    slope_exp = power_exp - current_exp

    if slope <= 0.0 or not np.isfinite(slope):
        raise ValueError(
            f"fitted slope {_unscaled(slope, slope_exp):.4g} mW/mA is not a lasing slope"
        )
    fitted = np.eye(2)
    threshold_grad = np.array([intercept / slope**2, -1.0 / slope])
    estimates = {
        "slope_mw_per_ma": (slope, fitted[0], slope_exp),
        "intercept_mw": (intercept, fitted[1], power_exp),
        "threshold_ma": (-intercept / slope, threshold_grad, current_exp),
    }
    residuals = scaled[included] - (slope * currents[included] + intercept)
    used = int(np.count_nonzero(included))
    return _report("lasing", estimates, covariance, residuals, power_exp, used, total - used)
