"""Tests for spectral grids and instrument convolution."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import convolve1d
from conftest import centered_points

from loopfwm.instrument import (
    FWHM_PER_SIGMA,
    MAX_GRID_POINTS,
    convolve_conserving,
    gaussian_kernel,
    range_count,
    range_grid,
)


class TestGrids:
    def test_range_grid_endpoints(self):
        grid = range_grid(1560.0, 1566.0, 0.01)
        assert grid.size == 601
        assert grid[0] == 1560.0
        assert grid[-1] == pytest.approx(1566.0, abs=1e-9)

    def test_uniform_spacing(self):
        grid = range_grid(1548.0, 1549.0, 0.05)
        np.testing.assert_allclose(np.diff(grid), 0.05, atol=1e-9)

    @pytest.mark.parametrize(
        "start, stop, step, count",
        [
            (1560.0, 1566.0, 0.01, 601),  # the default JSD signal axis
            (1560.0, 1566.007, 0.01, 601),  # a part step past the last is dropped
            (0.0, 0.3, 0.1, 4),  # 2.9999999999999996 steps count as 3
            (60.0, 150.0, 5.0, 19),  # the default laser-curve sweep
            (1552.87, 1558.87, 1e-4, 60001),  # the densest benchmark spectrum
        ],
    )
    def test_range_count(self, start, stop, step, count):
        assert range_count(start, stop, step) == count

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="stop must exceed its start"):
            range_count(1566.0, 1560.0, 0.01)
        with pytest.raises(ValueError, match="stop must exceed its start"):
            range_grid(1566.0, 1560.0, 0.01)
        with pytest.raises(ValueError, match="must be finite"):
            range_count(1560.0, math.nan, 0.01)

    @pytest.mark.parametrize("step", [0.0, -0.01])
    def test_range_grid_rejects_nonpositive_step(self, step):
        with pytest.raises(ValueError, match=f"grid step must be positive, got {step}"):
            range_grid(1560.0, 1566.0, step)
        with pytest.raises(ValueError, match=f"grid step must be positive, got {step}"):
            range_count(1560.0, 1566.0, step)

    def test_rejects_counts_past_the_limit_before_allocating(self):
        # Every count here fails the check; none is ever allocated.
        with pytest.raises(ValueError, match=r"1e\+09 points"):
            range_grid(0.0, 1.0, 1e-9)
        with pytest.raises(ValueError, match=r"6e\+15 points"):
            range_count(1552.0, 1558.0, 1e-15)
        with pytest.raises(ValueError, match="inf points"):
            range_grid(0.0, 1e300, 1e-300)
        with pytest.raises(ValueError, match="points"):
            range_grid(0.0, float(MAX_GRID_POINTS), 1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.floats(min_value=-1e6, max_value=1e6),
        intervals=st.floats(min_value=1e-3, max_value=2000.0),
        step=st.floats(min_value=1e-6, max_value=1e3),
    )
    def test_count_is_the_grid_size(self, start, intervals, step):
        stop = start + intervals * step
        assume(stop > start)
        grid = range_grid(start, stop, step)
        assert range_count(start, stop, step) == grid.size
        assert grid[0] == start
        # The last point is the last whole step: within one step of stop,
        # and never past it by more than the rule's 1e-9 of a step plus
        # the rounding of start + k*step.
        rounding = 4.0 * np.finfo(float).eps * (abs(start) + abs(stop))
        assert grid[-1] <= stop + 1e-9 * step + rounding
        assert grid[-1] > stop - step - rounding


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
        # 0.5 nm on 0.01 nm steps reaches 4 sigma = 84.9 samples: a cap of 85
        # keeps the whole kernel, and a smaller one refuses it, uncut.
        assert gaussian_kernel(0.01, 0.5, max_halfwidth=85).tolist() == (
            gaussian_kernel(0.01, 0.5).tolist()
        )
        for cap in (84, 10):
            with pytest.raises(ValueError, match=f"resolution of 500 pm .* than the {cap} "):
                gaussian_kernel(0.01, 0.5, max_halfwidth=cap)

    def test_zero_halfwidth_cap_is_the_identity(self):
        # Only the identity kernel fits a cap of 0; a wider one is refused.
        assert gaussian_kernel(0.01, 1e-9, max_halfwidth=0).tolist() == [1.0]
        with pytest.raises(ValueError, match="than the 0 "):
            gaussian_kernel(0.01, 0.5, max_halfwidth=0)

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

    def test_one_tap_kernel_copies_its_input(self):
        # The scan blurs with [1.0] when the resolution is zero.
        values = np.array([[0.0, -0.0, 5e-324, 2.2250738585072014e-308],
                           [1.0 / 3.0, -7.5, 1e300, np.finfo(float).max]])
        assert convolve_conserving(values, np.ones(1)).tobytes() == values.tobytes()

    def test_gaussian_widths_add_in_quadrature(self):
        step = 0.005
        grid = centered_points(0.0, 6.0, step)
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
    """A 1-D spectrum or a 2-D stack of them, with a Gaussian kernel that fits,
    and up to three cuts that split the stack's rows into blocks, some of them
    maybe empty."""
    length = draw(st.integers(min_value=3, max_value=700))
    shape = draw(st.sampled_from([(length,), (draw(st.integers(1, 4)), length)]))
    values = draw(
        arrays(float, shape, elements=st.floats(min_value=1e-12, max_value=1e3))
    )
    step = draw(st.floats(min_value=1e-3, max_value=0.05))
    # The widest FWHM whose ceil(4 sigma) samples each side fit the grid, less
    # a relative 1e-12 so that rounding cannot push it past.
    widest = (length - 1) // 2 * step * FWHM_PER_SIGMA / 4.0 * (1.0 - 1e-12)
    fwhm = draw(st.floats(min_value=min(1e-3, widest), max_value=min(2.0, widest)))
    kernel = gaussian_kernel(step, fwhm, max_halfwidth=(length - 1) // 2)
    rows = values.size // length
    cuts = sorted(draw(st.lists(st.integers(0, rows), max_size=3)))
    return values, kernel, cuts


class TestMatchesScipy:
    """The numpy blur reproduces ``scipy.ndimage.convolve1d(mode="wrap")``
    bit for bit, so swapping one for the other changes no output byte.  So
    does every way the scan calls it: into ``out``, in place, and one block
    of rows at a time."""

    @settings(deadline=None, max_examples=300)
    @given(case=blur_cases())
    def test_bitwise_equal_to_convolve1d(self, case):
        values, kernel, cuts = case
        expected = convolve1d(values, kernel, axis=-1, mode="wrap")
        out = np.full_like(values, np.nan)
        assert convolve_conserving(values, kernel, out=out) is out
        in_place = values.copy()
        convolve_conserving(in_place, kernel, out=in_place)
        rows = values.reshape(-1, values.shape[-1])
        blocks = np.full_like(rows, np.nan)
        bounds = [0, *cuts, len(rows)]
        for start, stop in zip(bounds, bounds[1:]):
            convolve_conserving(rows[start:stop], kernel, out=blocks[start:stop])
        for got in (convolve_conserving(values, kernel), out, in_place, blocks):
            assert got.tobytes() == expected.tobytes()
