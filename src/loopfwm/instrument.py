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
Rows are blurred independently, so a caller may blur a matrix one block
of rows at a time, into its own output, and get the same bits.  A kernel
that would reach past a caller's ``max_halfwidth`` is refused, not cut.
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


def range_count(start: float, stop: float, step: float) -> int:
    """Number of points ``floor((stop - start)/step + 1e-9) + 1`` of
    :func:`range_grid`, found without allocating it.

    Raises ``ValueError`` if a bound or the step is not finite, the step is
    not positive, the stop is not above the start, or the grid would have
    more than :data:`MAX_GRID_POINTS` points.
    """
    if not all(math.isfinite(value) for value in (start, stop, step)):
        raise ValueError(
            f"grid bounds and step must be finite, got [{start}, {stop}] step {step}"
        )
    if step <= 0.0:
        raise ValueError(f"grid step must be positive, got {step}")
    if stop <= start:
        raise ValueError(f"grid stop must exceed its start, got [{start}, {stop}]")
    intervals = (stop - start) / step
    if not intervals + 1.0 <= MAX_GRID_POINTS:
        raise ValueError(
            f"grid would have {intervals + 1.0:.4g} points, more than the "
            f"{MAX_GRID_POINTS:,} allowed; use a coarser step"
        )
    return int(math.floor(intervals + 1e-9)) + 1


def range_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Uniform grid of :func:`range_count` points from ``start`` at ``step``
    spacing, so it ends at ``stop`` up to rounding of the step count, in the
    unit the three share: the wavelength sweeps, the JSD scan axes and the
    drive-current sweep all use it."""
    return start + np.arange(range_count(start, stop, step)) * step


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
        Bound on the kernel half-width in samples, e.g. to keep the kernel
        shorter than the data for wrap-around convolution.  A kernel that
        needs more raises ``ValueError``; it is never cut to fit.

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
    if max_halfwidth is not None and 4.0 * sigma_samples > max_halfwidth:
        raise ValueError(
            f"a resolution of {fwhm_nm * 1e3:g} pm FWHM reaches {4.0 * sigma_samples:.4g} "
            f"samples each side, more than the {max_halfwidth} the grid holds"
        )
    halfwidth = int(math.ceil(4.0 * sigma_samples))
    offsets = np.arange(-halfwidth, halfwidth + 1, dtype=float)
    kernel = np.exp(-0.5 * (offsets / sigma_samples) ** 2)
    return kernel / kernel.sum()


def convolve_conserving(
    values: np.ndarray, kernel: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Convolve along the last axis with wrap-around boundaries, conserving the sum.

    For a unit-sum kernel the output sum equals the input sum to machine
    precision, because every input sample is redistributed rather than
    partially lost off the edges.

    The kernel must be odd-length and exactly symmetric, as every
    :func:`gaussian_kernel` is; convolution and correlation then coincide.
    The samples are wrap-padded by the kernel half-width and each output
    is ``v[i]*w[0] + sum((v[i-j] + v[i+j])*w[j])`` with ``j`` running down
    from the half-width to 1, the summation order of scipy's symmetric
    ``convolve1d`` path, so results match ``convolve1d(mode="wrap")``
    exactly.  Each row is blurred on its own, so a block of rows gets the
    bits of the whole array, and the kernel ``[1.0]`` copies its input.
    ``out`` receives the result, bit for bit, and may be ``values`` itself.

    Raises
    ------
    ValueError
        If the kernel is even-length, asymmetric, or longer than the
        grid along the last axis.
    """
    values = np.asarray(values, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    count = values.shape[-1]
    if kernel.ndim != 1 or kernel.size % 2 == 0:
        raise ValueError(f"kernel must be 1-D and odd-length, got shape {kernel.shape}")
    if not np.array_equal(kernel, kernel[::-1]):
        raise ValueError("kernel must be symmetric")
    if kernel.size > count:
        raise ValueError(f"kernel of {kernel.size} samples exceeds the {count}-sample grid")
    half = kernel.size // 2
    padded = np.concatenate((values[..., count - half:], values, values[..., :half]), axis=-1)
    out = np.multiply(padded[..., half:half + count], kernel[half], out=out)
    pair = np.empty_like(out)
    for j in range(half, 0, -1):
        np.add(padded[..., half - j:half - j + count], padded[..., half + j:half + j + count],
               out=pair)
        out += np.multiply(pair, kernel[half + j], out=pair)
    return out
