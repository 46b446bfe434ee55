"""Spectral grids and instrument-resolution convolution.

Measured spectra are the physical lineshape blurred by the spectrometer
response, modeled here as a Gaussian of given FWHM.  Convolution is
performed with periodic (wrap-around) boundary handling so that a
unit-sum kernel conserves the discretely integrated power exactly; with
open boundaries the tails leaking off the grid edges would break power
bookkeeping at the 1e-4 level for typical windows.  The blur is plain
numpy: the samples are wrap-padded by the kernel half-width and the
short symmetric kernel is applied tap by tap, summed in the same order
as ``scipy.ndimage.convolve1d(mode="wrap")`` so the two agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

#: Ratio between the FWHM and standard deviation of a Gaussian.
FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

#: Most points a grid may have: 166 times the 60,001 points of the densest
#: benchmark grid, and 80 MB per float64 array.  A larger count comes from a
#: mistyped step, and is rejected before anything is allocated.
MAX_GRID_POINTS = 10_000_000


def _check_point_count(intervals: float) -> None:
    """Reject a grid of ``intervals`` steps that exceeds :data:`MAX_GRID_POINTS`."""
    if not intervals + 1.0 <= MAX_GRID_POINTS:
        raise ValueError(
            f"grid would have {intervals + 1.0:.4g} points, more than the "
            f"{MAX_GRID_POINTS:,} allowed; use a coarser step"
        )


def centered_count(span_nm: float, step_nm: float) -> int:
    """Number of points ``round(span/step) + 1`` of a :func:`centered_grid`,
    found without allocating it."""
    if step_nm <= 0.0:
        raise ValueError(f"step_nm must be positive, got {step_nm}")
    if span_nm <= 0.0:
        raise ValueError(f"span_nm must be positive, got {span_nm}")
    intervals = span_nm / step_nm
    _check_point_count(intervals)
    return int(round(intervals)) + 1


def centered_grid(center_nm: float, span_nm: float, step_nm: float) -> np.ndarray:
    """Uniform wavelength grid of the given span centered on ``center_nm``.

    The number of points is :func:`centered_count`, so the endpoints sit
    at ``center ± span/2`` up to rounding of the step count, and an odd
    count places a sample exactly at the center.
    """
    count = centered_count(span_nm, step_nm)
    offsets = (np.arange(count) - (count - 1) / 2.0) * step_nm
    return center_nm + offsets


def range_grid(start_nm: float, stop_nm: float, step_nm: float) -> np.ndarray:
    """Uniform grid from ``start_nm`` to ``stop_nm`` inclusive (up to rounding)."""
    if not all(math.isfinite(value) for value in (start_nm, stop_nm, step_nm)):
        raise ValueError(
            f"grid bounds and step must be finite, got [{start_nm}, {stop_nm}] "
            f"step {step_nm}"
        )
    if step_nm <= 0.0:
        raise ValueError(f"step_nm must be positive, got {step_nm}")
    if stop_nm <= start_nm:
        raise ValueError(f"stop_nm must exceed start_nm, got [{start_nm}, {stop_nm}]")
    intervals = (stop_nm - start_nm) / step_nm
    _check_point_count(intervals)
    count = int(math.floor(intervals + 1e-9)) + 1
    return start_nm + np.arange(count) * step_nm


def gaussian_kernel(step_nm: float, fwhm_nm: float, max_halfwidth: int | None = None) -> np.ndarray:
    """Discrete unit-sum Gaussian kernel for a grid of spacing ``step_nm``.

    Parameters
    ----------
    step_nm : float
        Grid spacing.
    fwhm_nm : float
        Full width at half maximum of the response.  Must be positive; a
        width much smaller than the grid step degenerates to the identity
        kernel.
    max_halfwidth : int, optional
        Cap on the kernel half-width in samples (e.g. to keep the kernel
        shorter than the data for wrap-around convolution).

    Returns
    -------
    ndarray
        Odd-length kernel normalized to unit sum.
    """
    if step_nm <= 0.0:
        raise ValueError(f"step_nm must be positive, got {step_nm}")
    if fwhm_nm <= 0.0:
        raise ValueError(f"fwhm_nm must be positive, got {fwhm_nm}")
    sigma_samples = fwhm_nm / FWHM_PER_SIGMA / step_nm
    if sigma_samples <= 0.1:
        # The nearest-neighbor weight exp(-1/(2*sigma^2)) is below 1e-21
        # here, so the kernel is the identity to machine precision.
        return np.array([1.0])
    halfwidth = int(math.ceil(4.0 * sigma_samples))
    if max_halfwidth is not None:
        halfwidth = min(halfwidth, max_halfwidth)
    if halfwidth == 0:
        return np.array([1.0])
    offsets = np.arange(-halfwidth, halfwidth + 1, dtype=float)
    kernel = np.exp(-0.5 * (offsets / sigma_samples) ** 2)
    return kernel / kernel.sum()


def convolve_conserving(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolve along the last axis with wrap-around boundaries, conserving the sum.

    For a unit-sum kernel the output sum equals the input sum to machine
    precision, because every input sample is redistributed rather than
    partially lost off the edges.  A 2-D array is blurred row by row.

    The kernel must be odd-length and exactly symmetric, as every
    :func:`gaussian_kernel` is; convolution and correlation then coincide.
    The samples are wrap-padded by the kernel half-width and each output
    is ``v[i]*w[0] + sum((v[i-j] + v[i+j])*w[j])`` with ``j`` running down
    from the half-width to 1, the summation order of scipy's symmetric
    ``convolve1d`` path, so results match ``convolve1d(mode="wrap")``
    exactly.

    Raises
    ------
    ValueError
        If the kernel is even-length, asymmetric, or longer than the
        grid along the last axis.
    """
    values = np.asarray(values, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 1 or kernel.size % 2 == 0:
        raise ValueError(f"kernel must be 1-D and odd-length, got shape {kernel.shape}")
    if not np.array_equal(kernel, kernel[::-1]):
        raise ValueError("kernel must be symmetric")
    count = values.shape[-1]
    if kernel.size > count:
        raise ValueError(
            f"kernel of {kernel.size} samples exceeds the {count}-sample grid"
        )
    half = kernel.size // 2
    padded = np.concatenate((values[..., count - half:], values, values[..., :half]), axis=-1)
    out = padded[..., half:half + count] * kernel[half]
    for j in range(half, 0, -1):
        left = padded[..., half - j:half - j + count]
        right = padded[..., half + j:half + j + count]
        out += (left + right) * kernel[half + j]
    return out
