"""Least-squares reduction of simulated spectra and lasing curves.

The module provides three fitters:

* :func:`fit_lorentzian` — a Lorentzian-plus-baseline resonance fit used
  to extract center, linewidth, and quality factor from a sampled port
  spectrum.
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
smallest wavelength.  Parameter uncertainties come from the linearized
covariance at the optimum, scaled by the reduced chi-square.
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


class FitConvergenceError(RuntimeError):
    """Raised when a nonlinear fit exhausts its iteration budget."""


@dataclass(frozen=True)
class Spectrum:
    """A sampled single-valued spectrum with acquisition metadata.

    ``kind`` records which port or channel the samples came from:
    ``"through"`` and ``"drop"`` are transmissions (bounded by a 5%
    headroom above unity), while ``"idler"`` carries spectral power and
    is only required to be finite.
    """

    wavelengths_nm: np.ndarray
    values: np.ndarray
    resolution_pm: float
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
        if not np.all(np.diff(wavelengths) > 0.0):
            raise ValueError("wavelengths_nm must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if not (np.isfinite(self.resolution_pm) and self.resolution_pm > 0.0):
            raise ValueError(f"resolution_pm must be positive, got {self.resolution_pm}")
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
    detuning = 2.0 * (np.asarray(wavelengths_nm, dtype=float) - center_nm) / fwhm_nm
    return baseline + amplitude / (1.0 + detuning * detuning)


def _lorentzian_jacobian(params: np.ndarray, wavelengths: np.ndarray) -> np.ndarray:
    center, fwhm, amplitude, _ = params
    u = 2.0 * (wavelengths - center) / fwhm
    shape = 1.0 / (1.0 + u * u)
    shape2 = shape * shape
    jac = np.empty((wavelengths.size, 4))
    jac[:, 0] = amplitude * shape2 * 4.0 * u / fwhm
    jac[:, 1] = amplitude * shape2 * 2.0 * u * u / fwhm
    jac[:, 2] = shape
    jac[:, 3] = 1.0
    return jac


def _covariance_from_jacobian(jacobian: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Linearized covariance at the optimum, scaled by reduced chi-square."""
    _, singulars, vt = np.linalg.svd(jacobian, full_matrices=False)
    cutoff = np.finfo(float).eps * max(jacobian.shape) * singulars[0]
    inv_sq = np.where(singulars > cutoff, 1.0 / np.square(singulars), 0.0)
    unit_cov = (vt.T * inv_sq) @ vt
    dof = residuals.size - jacobian.shape[1]
    scale = float(residuals @ residuals) / dof if dof > 0 else 0.0
    return unit_cov * scale


def _initial_lorentzian_guess(
    wavelengths: np.ndarray, values: np.ndarray
) -> tuple[float, float, float, float]:
    """Deterministic starting point: edge baseline, extremum, half crossings."""
    n_edge = max(1, round(0.1 * wavelengths.size))
    baseline = 0.5 * (float(values[:n_edge].mean()) + float(values[-n_edge:].mean()))
    deviation = values - baseline
    extremum = int(np.argmax(np.abs(deviation)))
    amplitude = float(deviation[extremum])
    center = float(wavelengths[extremum])

    half = 0.5 * abs(amplitude)
    magnitude = np.abs(deviation)
    left = float(wavelengths[0])
    for i in range(extremum, 0, -1):
        if magnitude[i - 1] < half:
            left = float(
                np.interp(
                    half,
                    [magnitude[i - 1], magnitude[i]],
                    [wavelengths[i - 1], wavelengths[i]],
                )
            )
            break
    right = float(wavelengths[-1])
    for i in range(extremum, wavelengths.size - 1):
        if magnitude[i + 1] < half:
            right = float(
                np.interp(
                    half,
                    [magnitude[i + 1], magnitude[i]],
                    [wavelengths[i + 1], wavelengths[i]],
                )
            )
            break
    fwhm = right - left
    if not (np.isfinite(fwhm) and fwhm > 0.0):
        fwhm = 5.0 * float(np.median(np.diff(wavelengths)))
    return center, fwhm, amplitude, baseline


def _check_single_resonance(
    wavelengths: np.ndarray,
    values: np.ndarray,
    center: float,
    fwhm: float,
    amplitude: float,
    baseline: float,
) -> None:
    deviation = np.abs(values - baseline)
    outside = np.abs(wavelengths - center) > _ISOLATION_HALFWIDTHS * fwhm
    if np.any(deviation[outside] >= _ISOLATION_FRACTION * abs(amplitude)):
        raise ValueError(
            "fit window holds more than one resonance-scale feature; "
            "narrow the window to isolate a single line"
        )


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
        If the window is empty, holds several resonances, or samples
        the line too coarsely.
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

    center0, fwhm0, amplitude0, baseline0 = _initial_lorentzian_guess(wavelengths, values)
    _check_single_resonance(wavelengths, values, center0, fwhm0, amplitude0, baseline0)

    # Imported here, not at module top: scipy.optimize costs about 0.2 s
    # to import, and only this fit uses it.
    from scipy.optimize import least_squares

    def residuals(params: np.ndarray) -> np.ndarray:
        return lorentzian_profile(wavelengths, *params) - values

    result = least_squares(
        residuals,
        x0=np.array([center0, fwhm0, amplitude0, baseline0]),
        jac=lambda p: _lorentzian_jacobian(p, wavelengths),
        method="trf",
        xtol=1e-13,
        ftol=1e-13,
        gtol=1e-13,
        max_nfev=10_000,
    )
    if not result.success:
        raise FitConvergenceError(
            f"Lorentzian fit did not converge within the iteration budget: {result.message}"
        )
    center, fwhm, amplitude, baseline = result.x
    fwhm = abs(float(fwhm))
    if fwhm == 0.0:
        raise FitConvergenceError("Lorentzian fit collapsed to zero width")
    across = int(np.count_nonzero(np.abs(wavelengths - center) <= 0.5 * fwhm))
    if across < _MIN_POINTS_ACROSS_FWHM:
        raise ValueError(
            f"only {across} samples fall across the fitted linewidth "
            f"({fwhm:.4g} nm); at least {_MIN_POINTS_ACROSS_FWHM} are required"
        )
    covariance = _covariance_from_jacobian(
        _lorentzian_jacobian(result.x, wavelengths), result.fun
    )
    sigmas = np.sqrt(np.clip(np.diag(covariance), 0.0, None))

    quality = center / fwhm
    q_grad = np.array([1.0 / fwhm, -center / fwhm**2, 0.0, 0.0])
    q_sigma = float(np.sqrt(max(q_grad @ covariance @ q_grad, 0.0)))
    level = float(baseline + amplitude)
    level_grad = np.array([0.0, 0.0, 1.0, 1.0])
    level_sigma = float(np.sqrt(max(level_grad @ covariance @ level_grad, 0.0)))
    level_name = "extinction" if amplitude < 0.0 else "peak"

    parameters = {
        "center_nm": FitParameter(float(center), float(sigmas[0])),
        "fwhm_nm": FitParameter(fwhm, float(sigmas[1])),
        "amplitude": FitParameter(float(amplitude), float(sigmas[2])),
        "baseline": FitParameter(float(baseline), float(sigmas[3])),
        "quality_factor": FitParameter(float(quality), q_sigma),
        level_name: FitParameter(level, level_sigma),
    }
    return FitReport(
        parameters=parameters,
        residual_rms=float(np.sqrt(np.mean(np.square(result.fun)))),
        points_used=int(wavelengths.size),
        points_excluded=int(spectrum.size - wavelengths.size),
        model="lorentzian",
    )


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
    weights = np.ones_like(currents)

    included = np.ones(currents.size, dtype=bool)
    if exclusion_cutoff_ma is not None:
        included &= currents <= float(exclusion_cutoff_ma)
    if np.count_nonzero(included) < 4:
        raise ValueError(
            "at least four points are required below the high-current cutoff"
        )
    if float(powers[included].max()) <= 0.0:
        raise ValueError("all points are below threshold; no lasing slope to fit")
    # Fit in a power-of-two unit of power near the peak.  The rescaling is
    # exact, so it changes no result, and it keeps squared powers and slopes
    # in floating-point range for any finite data.
    unit = math.ldexp(1.0, math.frexp(float(np.max(np.abs(powers))))[1])
    powers = powers / unit

    for _ in range(currents.size):
        slope, intercept, covariance = weighted_line(
            currents[included], powers[included], weights[included]
        )
        predicted = slope * currents[included] + intercept
        floor = _HINGE_FLOOR_FRACTION * float(predicted.max())
        drop = included & (powers < floor)
        if not np.any(drop[included]):
            break
        included &= ~drop
        if np.count_nonzero(included) < 4:
            raise ValueError(
                "fewer than four points remain above threshold after hinge exclusion"
            )

    if slope <= 0.0 or not np.isfinite(slope):
        raise ValueError(f"fitted slope {slope:.4g} mW/mA is not a lasing slope")
    threshold = -intercept / slope
    gradient = np.array([intercept / slope**2, -1.0 / slope])
    threshold_sigma = float(np.sqrt(max(gradient @ covariance @ gradient, 0.0)))
    residuals = powers[included] - (slope * currents[included] + intercept)

    parameters = {
        "slope_mw_per_ma": FitParameter(
            slope * unit, float(np.sqrt(max(covariance[0, 0], 0.0))) * unit
        ),
        "intercept_mw": FitParameter(
            intercept * unit, float(np.sqrt(max(covariance[1, 1], 0.0))) * unit
        ),
        "threshold_ma": FitParameter(float(threshold), threshold_sigma),
    }
    used = int(np.count_nonzero(included))
    return FitReport(
        parameters=parameters,
        residual_rms=float(np.sqrt(np.mean(np.square(residuals)))) * unit,
        points_used=used,
        points_excluded=int(currents.size - used),
        model="lasing",
    )
