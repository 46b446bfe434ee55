"""Joint spectral analysis of the signal-idler pair.

The stimulated process maps out the same correlation structure that the
spontaneous pairs would carry: a two-photon (pump autoconvolution)
lineshape along the sum detuning, filtered by the signal and idler ring
resonances.  This module builds that joint amplitude on a wavelength
grid, decomposes it into Schmidt modes, computes its exact purity over
the scan windows, and simulates the scanned stimulated measurement
including the spectrometer response.

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
* The same aliasing makes :func:`schmidt` of a sampled :func:`jsa` a grid
  artifact at a narrow pump.  :func:`schmidt_purity` instead integrates
  the signal detuning in closed form and the idler pair on panels graded
  toward the ridge, over the windows in frequency, so its purity does not
  depend on the steps.
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


def _check_spans(
    grid: SpectralGrid, signal_linewidth_ghz: float, idler_linewidth_ghz: float
) -> None:
    """Reject an axis spanning less than four resonance linewidths, where
    the state would be visibly truncated."""
    for axis, linewidth, label in (
        (grid.signal, signal_linewidth_ghz, "signal"),
        (grid.idler, idler_linewidth_ghz, "idler"),
    ):
        if axis.span_ghz() < 4.0 * linewidth:
            raise ValueError(
                f"{label} axis spans {axis.span_ghz():.1f} GHz, less than four "
                f"linewidths ({4.0 * linewidth:.1f} GHz); widen the grid"
            )


def _check_linewidths(pump_ghz: float, signal_ghz: float, idler_ghz: float) -> None:
    """Reject a linewidth that is not positive and finite."""
    for name, width in (
        ("pump_linewidth_ghz", pump_ghz),
        ("signal_linewidth_ghz", signal_ghz),
        ("idler_linewidth_ghz", idler_ghz),
    ):
        if not 0.0 < width < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {width}")


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
    _check_spans(grid, signal_linewidth_ghz, idler_linewidth_ghz)
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


#: Gauss-Legendre nodes per panel of :func:`schmidt_purity`.
_GAUSS_NODES = 8
#: Width ratio of successive panels graded toward a feature, and the first
#: panel's width as a multiple of the feature's own width.
_PANEL_RATIO = 3.0
_FIRST_PANEL = 1.0
#: Most graded panels on each side of a feature (3**16 spans 4.3e7 widths);
#: one more panel reaches the end of the window.
_PANEL_LEVELS = 16
#: Most idler-pair nodes evaluated at once; blocks this small stay in cache
#: and reuse their memory.
_BLOCK_NODES = 1 << 14
#: Widths, in idler half widths, past which a Lorentzian tail holds less than
#: 1e-30 of its line: windows are cut there, the pump linewidth held within
#: [1/_FAR, _FAR] of the resonances and the ridge offset within _FAR**2.
_FAR = 1e30


def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1] from the Jacobi matrix (Golub-Welsch)."""
    k = np.arange(1.0, count)
    off_diagonal = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1))
    return nodes, 2.0 * vectors[0] ** 2


def _graded(extent: float, width: float) -> np.ndarray:
    """Panel edge offsets growing geometrically from ``width``, then ``extent``."""
    offsets = _FIRST_PANEL * width * _PANEL_RATIO ** np.arange(_PANEL_LEVELS)
    return np.append(offsets[offsets < extent], extent)


def _breakpoints(features, low: float, high: float) -> np.ndarray:
    """Panel edges graded toward each ``(center, width)``, cut to ``[low, high]``."""
    parts = [np.array([low, high])]
    for center, width in features:
        offsets = _graded(high - low, width)
        parts += [np.array([center]), center - offsets, center + offsets]
    return np.clip(np.concatenate(parts), low, high)


def _panels(edges: np.ndarray, nodes: np.ndarray, weights: np.ndarray):
    """Gauss-Legendre nodes and weights on the panels between sorted ``edges``
    (last axis).  Empty panels go last and are dropped where every row has one."""
    width = np.diff(edges, axis=-1)
    kept = width > 0.0
    order = np.argsort(~kept, axis=-1, kind="stable")[..., : int(kept.sum(axis=-1).max())]
    half = np.take_along_axis(width, order, -1)[..., None] / 2.0
    middle = np.take_along_axis(edges[..., :-1], order, -1)[..., None] + half
    shape = half.shape[:-2] + (-1,)
    return (middle + half * nodes).reshape(shape), (half * weights).reshape(shape)


def schmidt_purity(
    grid: SpectralGrid,
    triplet: FwmTriplet,
    pump_linewidth_ghz: float,
    signal_linewidth_ghz: float,
    idler_linewidth_ghz: float,
) -> float:
    """Purity ``tr(G^2)/tr(G)^2`` of the joint amplitude over the grid's windows.

    The amplitude is ``A(x, y) = phi(x + y - r) l_s(x) l_i(y)`` in the signal
    and idler detunings, with the lineshapes of
    :func:`two_photon_pump_lineshape` and :func:`resonance_lineshape` and
    ``r = c * triplet.energy_residual_per_nm``, as the scan sees it.  Each
    axis covers its window ``[center - span/2, center + span/2]`` in
    frequency, whatever the step; the Schmidt number is ``1/purity``.  A
    sampled amplitude cannot give this: the two-photon ridge is ``2*delta``
    wide, far narrower than a practical step, so :func:`schmidt` of
    :func:`jsa` aliases it.

    ``G(y, y') = l_i(y) conj(l_i(y')) F(y, y')`` with
    ``F = int phi(x + a) conj(phi(x + a')) |l_s(x)|^2 dx`` over the signal
    window ``[x_lo, x_hi]``, ``a = y - r``.  With ``d = delta``,
    ``h = Gamma_s/2``, ``s = d + h`` and ``D = a' - a``, its poles
    ``-a - i d``, ``-a' + i d`` and ``-/+ i h`` pair up by half plane into

        F * s/(d h) = d/(2 i d - D) * (Psi(a') - conj(Psi(a)))
        Psi(a) = s/(i s - a) * (h log1p(w)/(p - q) - Im L)

    where ``p = -a + i d``, ``q = i h``, ``L = Log((x_hi - q)/(x_lo - q))``
    and ``1 + w = (x_hi - p)(x_lo - q)/((x_lo - p)(x_hi - q))``, so
    ``log1p(w)/(p - q)`` is the divided difference of the edge logarithms
    of two poles in one half plane.  ``log1p(w)`` comes from ``w`` where it
    is small and from ``1 + w`` elsewhere, which keeps its digits where the
    pump pole nears a window edge.  On the diagonal ``F = Im Psi(a)``.
    The factor ``d h/s``, which under- or overflows at extreme widths,
    cancels in the purity and is dropped.

    The idler integrals ``tr(G^2) = 2 int_y int_{y' > y} |l_i l_i' F|^2``
    and ``tr(G)^2 = 2 int_y int_{y' > y} |l_i|^2 F(y, y) |l_i'|^2 F(y', y')``
    share Gauss-Legendre panels, graded geometrically toward ``y' = y``
    (on the scale ``d``), the idler and signal resonances ``0`` and ``r``,
    and the ridge exits ``r - x_lo`` and ``r - x_hi`` (scale ``d``).
    Shared nodes make the result at most 1, as ``|F(y, y')|^2 <= F(y, y)
    F(y', y')`` holds node by node.  Detunings are in idler half widths;
    a pump narrower than ``1/_FAR`` of the resonances gives a purity linear
    in ``d`` to within rounding, so it is evaluated there and scaled.  A
    purity below the smallest float comes back as 0.

    Raises
    ------
    ValueError
        If a linewidth is not positive and finite, or an axis spans less
        than four resonance linewidths.
    """
    _check_linewidths(pump_linewidth_ghz, signal_linewidth_ghz, idler_linewidth_ghz)
    _check_spans(grid, signal_linewidth_ghz, idler_linewidth_ghz)
    unit = idler_linewidth_ghz / 2.0

    def window(axis: SpectralAxis, resonance_nm: float) -> tuple[float, float]:
        low_nm, high_nm = axis.center_nm - axis.span_nm / 2.0, axis.center_nm + axis.span_nm / 2.0
        edges = detuning_ghz(np.array([high_nm, low_nm]), resonance_nm)
        limit = _FAR * unit
        return tuple(float(np.clip(edge, -limit, limit)) / unit for edge in edges)

    x_lo, x_hi = window(grid.signal, triplet.signal_nm)
    y_lo, y_hi = window(grid.idler, triplet.idler_nm)
    h = signal_linewidth_ghz / idler_linewidth_ghz
    offset = SPEED_OF_LIGHT_NM_GHZ * triplet.energy_residual_per_nm
    r = max(-_FAR**2, min(offset / unit, _FAR**2))
    requested = pump_linewidth_ghz / unit
    d = min(max(requested, min(1.0, h) / _FAR), max(1.0, h) * _FAR)
    if d == h:
        # p meets q at a = 0; a pump one ulp wider moves the purity by ~1e-16.
        d = math.nextafter(d, math.inf)

    s = d + h
    span = x_hi - x_lo
    high_pole = complex(x_hi, -h)
    low_ratio = complex(x_lo, -h) / high_pole
    im_l = math.atan2(h, x_lo) - math.atan2(h, x_hi)

    def psi(a: np.ndarray) -> np.ndarray:
        low_gap = (x_lo + a) - 1j * d
        pole_gap = 1j * (d - h) - a
        w = pole_gap * (span / (low_gap * high_pole))
        ratio = ((x_hi + a) - 1j * d) / low_gap * low_ratio
        small = w.real**2 + w.imag**2 < 0.25
        # log1p(w) from w where it is small, from 1 + w elsewhere.
        log1p = np.empty_like(w)
        doubled = log1p.real
        np.log1p(w.real * (2.0 + w.real) + w.imag**2, out=doubled, where=small)
        np.log(ratio.real**2 + ratio.imag**2, out=doubled, where=~small)
        log1p.real = 0.5 * doubled
        log1p.imag = np.where(
            small, np.arctan2(w.imag, 1.0 + w.real), np.arctan2(ratio.imag, ratio.real)
        )
        return (log1p * h / pole_gap - im_l) * (-(s / (a * a + s * s)) * (a + 1j * s))

    nodes, weights = _gauss_legendre(_GAUSS_NODES)
    breakpoints = _breakpoints(((0.0, 1.0), (r, h), (r - x_lo, d), (r - x_hi, d)), y_lo, y_hi)
    y, y_weights = _panels(np.unique(breakpoints), nodes, weights)
    psi_y = psi(y - r)
    outer = y_weights / (1.0 + y * y)
    outer_diagonal = outer * psi_y.imag
    diagonal = np.append(0.0, _graded(y_hi - y_lo, d))
    edges = np.concatenate(
        [np.broadcast_to(diagonal, (y.size, diagonal.size)), breakpoints - y[:, None]],
        axis=1,
    )
    edges = np.sort(np.clip(edges, 0.0, (y_hi - y)[:, None]), axis=1)
    squares = diagonals = 0.0
    rows = max(1, _BLOCK_NODES // (_GAUSS_NODES * edges.shape[1]))
    for start in range(0, y.size, rows):
        block = slice(start, start + rows)
        gap, gap_weights = _panels(edges[block], nodes, weights)
        y2 = y[block, None] + gap
        psi2 = psi((y[block, None] - r) + gap)
        f = d / (2j * d - gap) * (psi2 - np.conj(psi_y[block, None]))
        inner = gap_weights / (1.0 + y2 * y2)
        squares += outer[block] @ np.sum(inner * (f.real**2 + f.imag**2), axis=1)
        diagonals += outer_diagonal[block] @ np.sum(inner * psi2.imag, axis=1)
    return float(squares / diagonals) * (requested / d if requested < d else 1.0)


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
    Each cell holds its mean over one idler step, so placing its mass at
    the cell center adds ``step^2/12`` to the idler variance (Sheppard's
    correction); the width removes that share, ``step^2/(12 (1 +
    slope^2))`` perpendicular to the line, which keeps it independent of
    the step.

    Parameters
    ----------
    matrix : ndarray
        Nonnegative intensity, indexed ``[signal, idler]``.
    signal_nm, idler_nm : ndarray
        Axis wavelengths; the idler axis is uniform.

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
    variance = float(np.sum(matrix * perpendicular**2) / np.sum(matrix))
    step = (idler_nm[-1] - idler_nm[0]) / (idler_nm.size - 1) if idler_nm.size > 1 else 0.0
    width = math.sqrt(max(variance - step**2 / (12.0 * (1.0 + slope**2)), 0.0))
    return RidgeFit(slope=slope, intercept_nm=intercept, rms_width_nm=width)


#: Pump linewidth, as a fraction of the largest width or detuning in play,
#: below which the pump pole is on the real axis to within rounding and
#: :func:`_idler_cell_mean` is linear in it.
_LINEAR_PUMP = 1e-250


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
    term takes the limit ``E(0) = 1``.  Far from both lines the two terms
    nearly cancel, so there the relative rounding error grows as the cube
    of the distance, in cells that hold almost nothing.

    The arctangent argument and ``w`` divide distances by ``d``, which
    overflows for a narrow enough pump.  Below :data:`_LINEAR_PUMP` of the
    largest of ``h``, ``|a|`` and the edges, though, the pump pole lies on
    the real axis to within rounding, and the mean is linear in ``d``: it
    is ``pi*d*h^2/((a^2 + h^2) W)`` in the cell that holds the pole, and
    ``O(d^2)``, which underflows, elsewhere.  So such a ``d`` is evaluated
    at that floor and the mean scaled down to it.

    ``shift`` broadcasts against the cell edges.
    """
    d = pump_linewidth_ghz
    h = idler_half_width_ghz
    extent = h + max(float(np.max(np.abs(part))) for part in (shift, low, high))
    floor = _LINEAR_PUMP * extent
    if d < floor:
        return _idler_cell_mean(shift, low, high, floor, h) * (d / floor)
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
    _check_linewidths(pump_linewidth_ghz, signal_linewidth_ghz, idler_linewidth_ghz)
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
