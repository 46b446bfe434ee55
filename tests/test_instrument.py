"""Tests for spectral grids and instrument convolution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import convolve1d

from loopfwm.instrument import (
    FWHM_PER_SIGMA,
    MAX_GRID_POINTS,
    centered_grid,
    convolve_conserving,
    gaussian_kernel,
    range_grid,
)


class TestGrids:
    def test_centered_grid_hits_center(self):
        grid = centered_grid(1555.0, 2.72, 0.01)
        assert grid.size == 273
        assert grid[136] == pytest.approx(1555.0, abs=1e-12)
        assert grid[0] == pytest.approx(1555.0 - 1.36, abs=1e-9)

    def test_range_grid_endpoints(self):
        grid = range_grid(1560.0, 1566.0, 0.01)
        assert grid.size == 601
        assert grid[0] == 1560.0
        assert grid[-1] == pytest.approx(1566.0, abs=1e-9)

    def test_uniform_spacing(self):
        grid = range_grid(1548.0, 1549.0, 0.05)
        np.testing.assert_allclose(np.diff(grid), 0.05, atol=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="step_nm"):
            centered_grid(1555.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="span_nm"):
            centered_grid(1555.0, -1.0, 0.01)
        with pytest.raises(ValueError, match="stop_nm"):
            range_grid(1566.0, 1560.0, 0.01)

    def test_rejects_counts_past_the_limit_before_allocating(self):
        # Every count here fails the check; none is ever allocated.
        with pytest.raises(ValueError, match=r"1e\+09 points"):
            range_grid(0.0, 1.0, 1e-9)
        with pytest.raises(ValueError, match=r"6e\+15 points"):
            centered_grid(1555.0, 6.0, 1e-15)
        with pytest.raises(ValueError, match="inf points"):
            range_grid(0.0, 1e300, 1e-300)
        with pytest.raises(ValueError, match="points"):
            range_grid(0.0, float(MAX_GRID_POINTS), 1.0)


class TestKernel:
    def test_unit_sum_and_symmetry(self):
        kernel = gaussian_kernel(0.01, 0.067)
        assert kernel.sum() == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_allclose(kernel, kernel[::-1], rtol=1e-14)
        assert kernel.size % 2 == 1

    def test_width_matches_request(self):
        step = 0.01
        fwhm = 0.067
        kernel = gaussian_kernel(step, fwhm)
        offsets = (np.arange(kernel.size) - kernel.size // 2) * step
        # Second moment of the discrete kernel reproduces the Gaussian sigma.
        sigma = math.sqrt(np.sum(kernel * offsets**2))
        assert sigma * FWHM_PER_SIGMA == pytest.approx(fwhm, rel=1e-3)

    def test_degenerates_to_identity(self):
        kernel = gaussian_kernel(0.01, 1e-9)
        assert kernel.size == 1
        assert kernel[0] == 1.0

    def test_halfwidth_cap(self):
        kernel = gaussian_kernel(0.01, 0.5, max_halfwidth=10)
        assert kernel.size == 21

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError, match="fwhm_nm"):
            gaussian_kernel(0.01, 0.0)
        with pytest.raises(ValueError, match="step_nm"):
            gaussian_kernel(-0.01, 0.067)


class TestConvolution:
    def periodic_reference(self, values, kernel):
        """Direct periodic convolution sum, independent of scipy."""
        n = values.size
        half = kernel.size // 2
        out = np.zeros(n)
        for i in range(n):
            for m in range(-half, half + 1):
                out[i] += kernel[m + half] * values[(i - m) % n]
        return out

    def test_matches_direct_periodic_sum(self):
        rng = np.random.default_rng(23)
        values = rng.uniform(0.0, 2.0, 64)
        kernel = gaussian_kernel(1.0, 3.0)
        got = convolve_conserving(values, kernel)
        np.testing.assert_allclose(got, self.periodic_reference(values, kernel), rtol=1e-12)

    def test_conserves_sum(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            values = rng.uniform(0.0, 5.0, 301)
            kernel = gaussian_kernel(0.01, rng.uniform(0.02, 0.2))
            blurred = convolve_conserving(values, kernel)
            assert blurred.sum() == pytest.approx(values.sum(), rel=1e-12)

    def test_rejects_oversized_kernel(self):
        with pytest.raises(ValueError, match="exceeds"):
            convolve_conserving(np.ones(5), np.ones(7) / 7.0)

    def test_rejects_even_or_asymmetric_kernel(self):
        with pytest.raises(ValueError, match="odd-length"):
            convolve_conserving(np.ones(16), np.ones(4) / 4.0)
        with pytest.raises(ValueError, match="odd-length"):
            convolve_conserving(np.ones(16), np.ones((3, 3)) / 9.0)
        with pytest.raises(ValueError, match="symmetric"):
            convolve_conserving(np.ones(16), np.array([0.2, 0.5, 0.3]))
        kernel = gaussian_kernel(0.01, 0.067)
        kernel[0] = np.nextafter(kernel[0], 1.0)
        with pytest.raises(ValueError, match="symmetric"):
            convolve_conserving(np.ones(64), kernel)

    def test_gaussian_widths_add_in_quadrature(self):
        step = 0.005
        grid = centered_grid(0.0, 6.0, step)
        input_fwhm = 0.3
        sigma_in = input_fwhm / FWHM_PER_SIGMA
        line = np.exp(-0.5 * (grid / sigma_in) ** 2)
        kernel = gaussian_kernel(step, 0.4, max_halfwidth=(grid.size - 1) // 2)
        blurred = convolve_conserving(line, kernel)
        # Fit the output sigma from the second moment.
        sigma_out = math.sqrt(np.sum(blurred * grid**2) / blurred.sum())
        expected = math.hypot(0.3, 0.4) / FWHM_PER_SIGMA
        assert sigma_out == pytest.approx(expected, rel=1e-3)


@st.composite
def blur_cases(draw):
    """A 1-D spectrum or a 2-D stack of them, with a Gaussian kernel that fits."""
    length = draw(st.integers(min_value=3, max_value=700))
    shape = draw(st.sampled_from([(length,), (draw(st.integers(1, 4)), length)]))
    values = draw(
        arrays(float, shape, elements=st.floats(min_value=1e-12, max_value=1e3))
    )
    step = draw(st.floats(min_value=1e-3, max_value=0.05))
    fwhm = draw(st.floats(min_value=1e-3, max_value=2.0))
    kernel = gaussian_kernel(step, fwhm, max_halfwidth=(length - 1) // 2)
    return values, kernel


class TestMatchesScipy:
    """The numpy blur reproduces ``scipy.ndimage.convolve1d(mode="wrap")``
    bit for bit, so swapping one for the other changes no output byte."""

    @settings(deadline=None, max_examples=300)
    @given(case=blur_cases())
    def test_bitwise_equal_to_convolve1d(self, case):
        values, kernel = case
        got = convolve_conserving(values, kernel)
        expected = convolve1d(values, kernel, axis=-1, mode="wrap")
        assert np.array_equal(got, expected)
