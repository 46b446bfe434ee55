"""Joint spectral analysis of the signal-idler pair.

The stimulated process maps out the same correlation structure that the
spontaneous pairs would carry: a two-photon (pump autoconvolution)
lineshape along the sum detuning, filtered by the signal and idler ring
resonances.  This module builds that joint amplitude on a wavelength
grid, decomposes it into Schmidt modes, and simulates the scanned
stimulated measurement including the spectrometer response.

Conventions
-----------
* Detunings are ordinary frequencies in GHz, ``c/lambda - c/lambda_0``,
  evaluated exactly rather than to first order in the offset.
* The joint matrix is indexed ``[signal, idler]``: each row is the idler
  spectrum recorded at one signal-laser setting.
* A narrow pump makes the two-photon ridge far sharper than any
  practical scan step, so sampling it at cell centers would alias it.
  The scan simulation instead records each idler cell's exact mean
  intensity: ``c/lambda`` is linear across a cell to about 1e-5, so
  the mean is the integral of a product of two Lorentzians in the idler
  detuning between the cell edges, divided by the cell width, which
  partial fractions give in closed form.  The blur is
  :func:`loopfwm.instrument.convolve_conserving` along the idler axis,
  with wrap-around edges so each row keeps its mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from loopfwm.fitting import weighted_line
from loopfwm.fwm import FwmTriplet
from loopfwm.instrument import (
    MAX_GRID_POINTS,
    centered_count,
    centered_grid,
    convolve_conserving,
    gaussian_kernel,
)
from loopfwm.ring import SPEED_OF_LIGHT_NM_GHZ


@dataclass(frozen=True)
class SpectralAxis:
    """One axis of a signal-idler grid: center, span and step.

    The low edge ``center_nm - span_nm/2`` must be above 0 nm, where every
    wavelength has a finite frequency.

    Parameters
    ----------
    center_nm : float
        Center wavelength in nm.
    span_nm : float
        Full width of the axis in nm.
    step_pm : float
        Grid step in picometers.
    """

    center_nm: float
    span_nm: float
    step_pm: float

    def __post_init__(self) -> None:
        for name in ("center_nm", "span_nm", "step_pm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.step_pm <= 0.0:
            raise ValueError(f"step_pm must be positive, got {self.step_pm}")
        if self.span_nm <= 0.0:
            raise ValueError(f"span_nm must be positive, got {self.span_nm}")
        low = self.center_nm - self.span_nm / 2.0
        if low <= 0.0:
            raise ValueError(f"axis low edge must be above 0 nm, got {low} nm")
        if self.size < 16:
            raise ValueError(
                f"axis needs at least 16 points, got {self.size} "
                f"(span {self.span_nm} nm at {self.step_pm} pm steps)"
            )

    @property
    def step_nm(self) -> float:
        return self.step_pm * 1e-3

    @property
    def size(self) -> int:
        return centered_count(self.span_nm, self.step_nm)

    def wavelengths_nm(self) -> np.ndarray:
        return centered_grid(self.center_nm, self.span_nm, self.step_nm)

    def span_ghz(self) -> float:
        """Frequency width of the axis, exact at the band edges."""
        low = self.center_nm - self.span_nm / 2.0
        high = self.center_nm + self.span_nm / 2.0
        return SPEED_OF_LIGHT_NM_GHZ / low - SPEED_OF_LIGHT_NM_GHZ / high

    @classmethod
    def from_range(cls, start_nm: float, stop_nm: float, step_pm: float) -> "SpectralAxis":
        """Axis covering ``[start_nm, stop_nm]`` inclusive."""
        return cls(
            center_nm=(start_nm + stop_nm) / 2.0,
            span_nm=stop_nm - start_nm,
            step_pm=step_pm,
        )


@dataclass(frozen=True)
class SpectralGrid:
    """Signal and idler wavelength axes of a joint measurement.

    The joint grid may hold at most :data:`~loopfwm.instrument.MAX_GRID_POINTS`
    cells, checked before any joint array is allocated.
    """

    signal: SpectralAxis
    idler: SpectralAxis

    def __post_init__(self) -> None:
        cells = self.signal.size * self.idler.size
        if cells > MAX_GRID_POINTS:
            raise ValueError(
                f"joint grid would have {cells:,} cells ({self.signal.size} x "
                f"{self.idler.size}), more than the {MAX_GRID_POINTS:,} allowed; "
                f"use coarser steps"
            )


@dataclass(frozen=True)
class JointAmplitude:
    """Complex joint spectral amplitude sampled on a grid.

    The matrix is indexed ``[signal, idler]``.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix)
        if matrix.ndim != 2:
            raise ValueError(f"joint amplitude must be a matrix, got shape {matrix.shape}")
        if not np.all(np.isfinite(matrix.real)) or not np.all(np.isfinite(matrix.imag)):
            raise ValueError("joint amplitude contains non-finite entries")
        if not np.any(matrix != 0.0):
            raise ValueError("joint amplitude is identically zero")


@dataclass(frozen=True)
class SchmidtResult:
    """Schmidt decomposition summary of a joint amplitude.

    Attributes
    ----------
    singular_values : ndarray
        Descending singular values of the sampled amplitude.
    coefficients : ndarray
        Normalized Schmidt coefficients (squared singular values summing
        to one).
    purity : float
        Sum of squared coefficients; 1 for a separable state.
    schmidt_number : float
        Effective mode count ``K = 1/purity``.
    """

    singular_values: np.ndarray
    coefficients: np.ndarray
    purity: float
    schmidt_number: float


def detuning_ghz(wavelength_nm, resonance_nm: float):
    """Exact frequency detuning ``c/lambda - c/lambda_0`` in GHz."""
    wavelength_nm = np.asarray(wavelength_nm, dtype=float)
    return SPEED_OF_LIGHT_NM_GHZ / wavelength_nm - SPEED_OF_LIGHT_NM_GHZ / resonance_nm


def two_photon_pump_lineshape(sum_detuning_ghz, pump_linewidth_ghz: float):
    """Complex two-photon pump amplitude versus sum detuning.

    The autoconvolution of a Lorentzian pump line of FWHM ``delta_p`` is
    a Lorentzian of FWHM ``2*delta_p``; as an amplitude,

        phi(Omega) = delta_p / (delta_p - i*Omega)

    whose squared magnitude has FWHM ``2*delta_p`` and unit peak.
    """
    if pump_linewidth_ghz <= 0.0:
        raise ValueError(
            f"pump_linewidth_ghz must be positive, got {pump_linewidth_ghz}"
        )
    omega = np.asarray(sum_detuning_ghz, dtype=float)
    return pump_linewidth_ghz / (pump_linewidth_ghz - 1j * omega)


def resonance_lineshape(detuning, linewidth_ghz: float):
    """Complex Lorentzian resonance amplitude of intensity FWHM ``linewidth``."""
    if linewidth_ghz <= 0.0:
        raise ValueError(f"linewidth_ghz must be positive, got {linewidth_ghz}")
    half = linewidth_ghz / 2.0
    omega = np.asarray(detuning, dtype=float)
    return half / (half - 1j * omega)


def jsa(
    grid: SpectralGrid,
    pump_linewidth_ghz: float,
    signal_linewidth_ghz: float,
    idler_linewidth_ghz: float,
    signal_resonance_nm: float,
    idler_resonance_nm: float,
    pump_resonance_nm: float,
) -> JointAmplitude:
    """Joint spectral amplitude on the grid.

    ``A(ws, wi) = phi_2p(Omega_s + Omega_i + offset) * l_s(Omega_s) *
    l_i(Omega_i)``, with detunings measured from the signal and idler
    resonances; the residual ``2*nu_p - nu_s0 - nu_i0`` of the pump
    resonance shifts the two-photon ridge by ``offset``.

    Raises
    ------
    ValueError
        If either axis spans less than four resonance linewidths, where
        the sampled state would be visibly truncated.
    """
    for axis, linewidth, label in (
        (grid.signal, signal_linewidth_ghz, "signal"),
        (grid.idler, idler_linewidth_ghz, "idler"),
    ):
        if axis.span_ghz() < 4.0 * linewidth:
            raise ValueError(
                f"{label} axis spans {axis.span_ghz():.1f} GHz, less than four "
                f"linewidths ({4.0 * linewidth:.1f} GHz); widen the grid"
            )

    omega_s = detuning_ghz(grid.signal.wavelengths_nm(), signal_resonance_nm)
    omega_i = detuning_ghz(grid.idler.wavelengths_nm(), idler_resonance_nm)
    sum_offset = float(
        SPEED_OF_LIGHT_NM_GHZ
        * (1.0 / signal_resonance_nm + 1.0 / idler_resonance_nm - 2.0 / pump_resonance_nm)
    )
    pump_term = two_photon_pump_lineshape(
        omega_s[:, None] + omega_i[None, :] + sum_offset, pump_linewidth_ghz
    )
    matrix = (
        pump_term
        * resonance_lineshape(omega_s, signal_linewidth_ghz)[:, None]
        * resonance_lineshape(omega_i, idler_linewidth_ghz)[None, :]
    )
    return JointAmplitude(matrix)


def schmidt(joint: JointAmplitude) -> SchmidtResult:
    """Schmidt decomposition of the sampled joint amplitude.

    Uniform Riemann quadrature on a regular grid weights every sample
    equally, so the weighted SVD reduces to the SVD of the raw matrix;
    the overall scale drops out of the normalized coefficients.
    """
    singular_values = np.linalg.svd(joint.matrix, compute_uv=False)
    total = float(np.sum(singular_values**2))
    if total == 0.0:
        raise ValueError("joint amplitude is identically zero")
    coefficients = singular_values**2 / total
    purity = float(np.sum(coefficients**2))
    return SchmidtResult(
        singular_values=singular_values,
        coefficients=coefficients,
        purity=purity,
        schmidt_number=1.0 / purity,
    )


@dataclass(frozen=True)
class RidgeFit:
    """Weighted straight-line fit to the correlation ridge."""

    slope: float
    intercept_nm: float
    rms_width_nm: float


def ridge_fit(
    matrix: np.ndarray,
    signal_nm: np.ndarray,
    idler_nm: np.ndarray,
) -> RidgeFit:
    """Fit the ridge of a joint intensity matrix.

    Each row (one signal setting) contributes its intensity-weighted
    idler centroid; a mass-weighted straight line through the centroids
    gives the ridge slope and intercept, and the rms width is measured
    perpendicular to that line over the full intensity distribution.

    Parameters
    ----------
    matrix : ndarray
        Nonnegative intensity, indexed ``[signal, idler]``.
    signal_nm, idler_nm : ndarray
        Axis wavelengths.

    Returns
    -------
    RidgeFit
        Slope (dimensionless), intercept in nm, perpendicular rms width
        in nm.
    """
    matrix = np.asarray(matrix, dtype=float)
    signal_nm = np.asarray(signal_nm, dtype=float)
    idler_nm = np.asarray(idler_nm, dtype=float)
    if matrix.shape != (signal_nm.size, idler_nm.size):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match axes "
            f"({signal_nm.size}, {idler_nm.size})"
        )
    if np.any(matrix < 0.0):
        raise ValueError("intensity matrix must be nonnegative")
    mass = matrix.sum(axis=1)
    if not np.any(mass > 0.0):
        raise ValueError("intensity matrix is identically zero")
    keep = mass > 0.0
    centroids = matrix[keep] @ idler_nm / mass[keep]
    slope, intercept, _ = weighted_line(signal_nm[keep], centroids, mass[keep])

    predicted = intercept + slope * signal_nm[:, None]
    perpendicular = (idler_nm[None, :] - predicted) / math.hypot(1.0, slope)
    width = math.sqrt(float(np.sum(matrix * perpendicular**2) / np.sum(matrix)))
    return RidgeFit(slope=slope, intercept_nm=intercept, rms_width_nm=width)


def _log1p_over(z: np.ndarray) -> np.ndarray:
    """``log1p(z)/z`` for complex ``z``, with its limit 1 at ``z = 0``.

    numpy's complex ``log1p`` takes the real part as ``log|1+z|``, which
    loses the low digits of a small ``z``; ``0.5*log1p(2x + x^2 + y^2)``
    keeps them.
    """
    x, y = z.real, z.imag
    log1p = np.empty_like(z)
    log1p.real = 0.5 * np.log1p(x * (2.0 + x) + y * y)
    log1p.imag = np.arctan2(y, 1.0 + x)
    return np.divide(log1p, z, out=np.ones_like(z), where=z != 0.0)


def _idler_cell_mean(
    shift: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    pump_linewidth_ghz: float,
    idler_half_width_ghz: float,
) -> np.ndarray:
    """Mean of ``|phi_2p(y + a)|^2 * |l_i(y)|^2`` over ``low <= y <= high``.

    With ``d = pump_linewidth_ghz``, ``h = idler_half_width_ghz`` and
    ``a = shift``, the integrand ``d^2 h^2 / (((y+a)^2 + d^2) (y^2 + h^2))``
    has the poles ``p = -a + i*d`` and ``q = i*h`` in the upper half plane
    and their conjugates below, so its integral is twice the real part of
    the residue terms of ``p`` and ``q``.  Summed, those two terms are a
    divided difference over ``(p, q)``; with ``s = d + h``,
    ``W = high - low`` and ``E(z) = log1p(z)/z``, the mean is

        d*s/(a^2 + s^2) * h*theta/W + Im[d/(a + i*s) * P * E(w) * h/(high - q)]

    where ``theta = arg((high - p)/(low - p))`` is the pump Lorentzian's
    arctan difference, ``P = d/(low - p)`` and
    ``w = W*(p - q)/((low - p)*(high - q))``.  ``1 + w`` is the ratio of
    the two poles' edge ratios, so ``log1p(w)/(p - q)`` is the divided
    difference of their edge logarithms, and ``E(w)`` writes it without
    dividing by ``p - q``.  Neither term is a difference of two
    logarithms, so nothing is lost between close cell edges or close
    poles, and where ``p`` meets ``q`` (``a = 0`` and ``d = h``) the pair
    term takes the limit ``E(0) = 1``.  Every factor is bounded, so no
    linewidth overflows it.  Far from both lines the two terms nearly
    cancel, so there the relative rounding error grows as the cube of the
    distance, in cells that hold almost nothing.

    ``shift`` broadcasts against the cell edges.
    """
    d = pump_linewidth_ghz
    h = idler_half_width_ghz
    s = d + h
    width = high - low
    low_sum = low + shift
    theta = np.arctan2(width, low_sum * (high + shift) / d + d)
    pump = d / (low_sum - 1j * d)
    idler = h / (high - 1j * h)
    w = pump * ((1j * (d - h) - shift) / d) * (width / h * idler)
    pair = d / (shift + 1j * s) * pump * _log1p_over(w) * idler
    return (d / s) / (1.0 + (shift / s) ** 2) * theta * (h / width) + pair.imag


def simulate_jsd_scan(
    grid: SpectralGrid,
    triplet: FwmTriplet,
    pump_linewidth_ghz: float,
    signal_linewidth_ghz: float,
    idler_linewidth_ghz: float,
    resolution_fwhm_pm: float,
) -> np.ndarray:
    """Simulate the scanned stimulated-idler measurement.

    For each signal-laser wavelength on the grid, the generated idler
    spectrum is the joint intensity slice
    ``|phi_2p(Omega_s + Omega_i - offset)|^2 * |l_i(Omega_i)|^2 *
    |l_s(Omega_s)|^2`` at that signal detuning, with the lineshapes of
    :func:`two_photon_pump_lineshape` and :func:`resonance_lineshape`.
    The two-photon ridge can be orders of magnitude narrower than the
    scan step, so each idler cell holds the slice's exact mean over the
    cell, taken in closed form between the cell-edge detunings (see
    :func:`_idler_cell_mean`); the cells tile the idler span, so a row's
    cell integrals sum to its integral over the span.  The instrument
    response then blurs each idler spectrum with
    :func:`loopfwm.instrument.convolve_conserving` (wrap-around edges,
    so the blur conserves each row's mass).

    Parameters
    ----------
    grid : SpectralGrid
        Signal (scan) and idler (spectrometer) axes.
    triplet : FwmTriplet
        Resonance triplet; pump fixes the two-photon ridge, signal and
        idler fix the resonance filters.
    pump_linewidth_ghz : float
        Pump laser linewidth (the two-photon structure has twice this
        width).
    signal_linewidth_ghz, idler_linewidth_ghz : float
        Loaded resonance linewidths.
    resolution_fwhm_pm : float
        Spectrometer Gaussian FWHM in pm; zero disables blurring.

    Returns
    -------
    ndarray
        Nonnegative intensity, indexed ``[signal, idler]``, in the
        arbitrary units of the squared joint amplitude.

    Raises
    ------
    ValueError
        If a linewidth is not positive and finite, the resolution is
        negative or not finite, or either axis fails to cover its
        resonance.
    """
    for name, width in (
        ("pump_linewidth_ghz", pump_linewidth_ghz),
        ("signal_linewidth_ghz", signal_linewidth_ghz),
        ("idler_linewidth_ghz", idler_linewidth_ghz),
    ):
        if not 0.0 < width < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {width}")
    if not 0.0 <= resolution_fwhm_pm < math.inf:
        raise ValueError(
            f"resolution_fwhm_pm must be finite and >= 0, got {resolution_fwhm_pm}"
        )
    signal_axis = grid.signal.wavelengths_nm()
    idler_axis = grid.idler.wavelengths_nm()
    for axis, resonance, label in (
        (signal_axis, triplet.signal_nm, "signal"),
        (idler_axis, triplet.idler_nm, "idler"),
    ):
        if not axis[0] <= resonance <= axis[-1]:
            raise ValueError(
                f"{label} axis [{axis[0]:.3f}, {axis[-1]:.3f}] nm does not cover "
                f"the {label} resonance at {resonance:.3f} nm"
            )

    step_nm = grid.idler.step_nm
    # Detuning falls as the wavelength grows, so edge k+1 is the low end
    # of cell k.
    edges = detuning_ghz(
        np.append(idler_axis - step_nm / 2.0, idler_axis[-1] + step_nm / 2.0),
        triplet.idler_nm,
    )
    omega_s = detuning_ghz(signal_axis, triplet.signal_nm)
    sum_offset = float(SPEED_OF_LIGHT_NM_GHZ * triplet.energy_residual_per_nm)
    signal_filter = np.abs(
        resonance_lineshape(omega_s, signal_linewidth_ghz)
    ) ** 2
    result = _idler_cell_mean(
        (omega_s - sum_offset)[:, None],
        edges[1:],
        edges[:-1],
        pump_linewidth_ghz,
        idler_linewidth_ghz / 2.0,
    ) * signal_filter[:, None]

    if resolution_fwhm_pm > 0.0:
        n_idler = idler_axis.size
        kernel = gaussian_kernel(
            step_nm, resolution_fwhm_pm * 1e-3, max_halfwidth=(n_idler - 1) // 2
        )
        result = convolve_conserving(result, kernel)
    return result
