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
  practical scan step, so the scan simulation supersamples the idler
  axis and box-averages back to the requested grid before applying the
  instrument kernel; sampling the ridge at cell centers alone would
  alias it.  The blur is :func:`loopfwm.instrument.convolve_conserving`
  along the idler axis, with wrap-around edges so each row keeps its
  mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from loopfwm.fitting import weighted_line
from loopfwm.fwm import FwmTriplet
from loopfwm.instrument import centered_grid, convolve_conserving, gaussian_kernel
from loopfwm.ring import SPEED_OF_LIGHT_NM_GHZ

#: Default pump linewidth (GHz) for the scanned-measurement simulation.
#: The self-pumped laser line is far narrower than the 70 GHz ring
#: resonances; this free parameter controls how tightly the measured
#: ridge hugs the energy-conservation line.
DEFAULT_PUMP_LINEWIDTH_GHZ = 0.05

_SUPERSAMPLE_LIMIT = 512
_ROW_BLOCK_ENTRIES = 2_000_000


@dataclass(frozen=True)
class SpectralAxis:
    """One axis of a signal-idler grid: center, span and step.

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
        if self.center_nm <= 0.0:
            raise ValueError(f"center_nm must be positive, got {self.center_nm}")
        if self.step_pm <= 0.0:
            raise ValueError(f"step_pm must be positive, got {self.step_pm}")
        if self.span_nm <= 0.0:
            raise ValueError(f"span_nm must be positive, got {self.span_nm}")
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
        return self.wavelengths_nm().size

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
    """Signal and idler wavelength axes of a joint measurement."""

    signal: SpectralAxis
    idler: SpectralAxis


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
    signal_resonance_nm: float | None = None,
    idler_resonance_nm: float | None = None,
    pump_resonance_nm: float | None = None,
) -> JointAmplitude:
    """Joint spectral amplitude on the grid.

    ``A(ws, wi) = phi_2p(Omega_s + Omega_i + offset) * l_s(Omega_s) *
    l_i(Omega_i)``, with detunings measured from the signal and idler
    resonances.  By default the resonances sit at the grid centers and
    the pump is energy-conservation centered (zero offset); an explicit
    pump resonance shifts the two-photon ridge by the triplet's residual.

    Raises
    ------
    ValueError
        If either axis spans less than four resonance linewidths, where
        the sampled state would be visibly truncated.
    """
    signal_resonance_nm = (
        grid.signal.center_nm if signal_resonance_nm is None else signal_resonance_nm
    )
    idler_resonance_nm = (
        grid.idler.center_nm if idler_resonance_nm is None else idler_resonance_nm
    )
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
    if pump_resonance_nm is None:
        sum_offset = 0.0
    else:
        # Residual of 2*nu_p - nu_s0 - nu_i0 shifts the two-photon ridge.
        sum_offset = float(
            SPEED_OF_LIGHT_NM_GHZ
            * (
                1.0 / signal_resonance_nm
                + 1.0 / idler_resonance_nm
                - 2.0 / pump_resonance_nm
            )
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


def simulate_jsd_scan(
    grid: SpectralGrid,
    triplet: FwmTriplet,
    pump_linewidth_ghz: float = DEFAULT_PUMP_LINEWIDTH_GHZ,
    signal_linewidth_ghz: float = 70.0,
    idler_linewidth_ghz: float = 70.0,
    resolution_fwhm_pm: float = 67.0,
) -> np.ndarray:
    """Simulate the scanned stimulated-idler measurement.

    For each signal-laser wavelength on the grid, the generated idler
    spectrum is the joint intensity slice at that signal detuning.  The
    two-photon ridge can be orders of magnitude narrower than the scan
    step, so each coarse idler cell is supersampled at cell-centered
    subpoints and box-averaged, which conserves the slice mass.  The
    instrument response then blurs each idler spectrum with
    :func:`loopfwm.instrument.convolve_conserving` (wrap-around edges,
    so the blur conserves each row's mass too).

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
        If either axis fails to cover its resonance.
    """
    if resolution_fwhm_pm < 0.0:
        raise ValueError(
            f"resolution_fwhm_pm must be >= 0, got {resolution_fwhm_pm}"
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
    # Resolve the two-photon ridge: its intensity FWHM on the idler axis
    # in wavelength terms, taken at the idler resonance.
    ridge_fwhm_nm = (
        2.0 * pump_linewidth_ghz * triplet.idler_nm**2 / SPEED_OF_LIGHT_NM_GHZ
    )
    target_nm = max(ridge_fwhm_nm / 4.0, 0.05e-3)
    supersample = int(min(max(math.ceil(step_nm / target_nm), 1), _SUPERSAMPLE_LIMIT))

    fine_offsets = (np.arange(supersample) + 0.5) / supersample - 0.5
    fine_idler = (idler_axis[:, None] + fine_offsets[None, :] * step_nm).ravel()
    omega_i_fine = detuning_ghz(fine_idler, triplet.idler_nm)
    omega_s = detuning_ghz(signal_axis, triplet.signal_nm)
    sum_offset = float(SPEED_OF_LIGHT_NM_GHZ * triplet.energy_residual_per_nm)

    idler_filter = np.abs(
        resonance_lineshape(omega_i_fine, idler_linewidth_ghz)
    ) ** 2
    signal_filter = np.abs(
        resonance_lineshape(omega_s, signal_linewidth_ghz)
    ) ** 2

    n_signal = signal_axis.size
    n_idler = idler_axis.size
    result = np.empty((n_signal, n_idler))
    block = max(1, _ROW_BLOCK_ENTRIES // max(omega_i_fine.size, 1))
    for start in range(0, n_signal, block):
        stop = min(start + block, n_signal)
        sum_detuning = (
            omega_s[start:stop, None] + omega_i_fine[None, :] - sum_offset
        )
        pump_intensity = np.abs(
            two_photon_pump_lineshape(sum_detuning, pump_linewidth_ghz)
        ) ** 2
        rows = pump_intensity * idler_filter[None, :]
        rows = rows.reshape(stop - start, n_idler, supersample).mean(axis=2)
        result[start:stop] = rows * signal_filter[start:stop, None]

    if resolution_fwhm_pm > 0.0:
        kernel = gaussian_kernel(
            step_nm, resolution_fwhm_pm * 1e-3, max_halfwidth=(n_idler - 1) // 2
        )
        result = convolve_conserving(result, kernel)
    return result
