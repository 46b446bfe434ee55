"""Tests for the loop-laser model.

The implicit saturated-gain relation is checked against direct numerical
integration of the distributed gain ODE, the closed-form lasing
characteristic against the round-trip steady-state root, and that root
against the saturated-gain solver and the loop-closure condition.  The
reference ledger and amplifier come from the packaged default config;
variants are built from them with :func:`dataclasses.replace`.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from loopfwm.config import default_config_text, parse_config
from loopfwm.fitting import fit_lasing_curve
from loopfwm.laser import (
    DB_PER_NEPER,
    GainModel,
    LossBudget,
    LossElement,
    output_power_curve,
    saturated_single_pass_gain,
    steady_state_roundtrip,
)

CONFIG = parse_config(default_config_text())
BUDGET = CONFIG.budget
GAIN = CONFIG.gain


def single_element(loss_db: float):
    """A one-element loop with no ring insertion loss."""
    return replace(
        BUDGET,
        elements=(LossElement("attenuator", loss_db),),
        ring_insertion_db=0.0,
        ring_index=0,
        tap_index=0,
    )


LOSSLESS = single_element(0.0)


class TestLossBudget:
    def test_paper_default_totals_18_db(self):
        assert BUDGET.total_db == pytest.approx(18.0, abs=1e-12)

    def test_ring_insertion_reported_separately(self):
        assert BUDGET.ring_insertion_db == 2.0
        assert BUDGET.loop_db == pytest.approx(20.0, abs=1e-12)

    def test_single_zero_element(self):
        budget = replace(
            BUDGET, elements=(LossElement("patch cord", 0.0),), ring_index=0, tap_index=0
        )
        assert budget.total_db == 0.0

    def test_removing_one_bandpass_filter(self):
        elements = tuple(
            e for e in BUDGET.elements if e.name != "bandpass filter (post-ring)"
        )
        budget = replace(BUDGET, elements=elements, tap_index=5)
        assert budget.total_db == pytest.approx(14.5, abs=1e-12)

    def test_path_segments(self):
        # Amplifier -> BPF + 50:50 + isolator + input grating -> ring.
        assert BUDGET.amplifier_to_ring_db == pytest.approx(10.4, abs=1e-12)
        # Drop port -> output grating + BPF -> tap input.
        assert BUDGET.ring_to_tap_db == pytest.approx(7.1, abs=1e-12)
        assert BUDGET.amplifier_to_tap_db == pytest.approx(19.5, abs=1e-12)

    def test_rejects_bad_layouts(self):
        with pytest.raises(ValueError, match="tap_index 0 outside the element chain"):
            LossBudget((), 2.0, 0, 0)
        with pytest.raises(ValueError, match="loss_db"):
            LossElement("broken", -1.0)
        with pytest.raises(ValueError, match="tap must come after"):
            replace(BUDGET, tap_index=2)
        with pytest.raises(ValueError, match="ring_insertion_db"):
            replace(BUDGET, ring_insertion_db=math.inf)


class TestGainModel:
    def test_calibration_constant(self):
        # 20 dB at 90 mA in nepers per mA.
        assert GAIN.small_signal_gain_db(1.0) / DB_PER_NEPER == pytest.approx(
            2.0 * math.log(10.0) / 90.0, rel=1e-14
        )
        assert GAIN.small_signal_gain_db(90.0) == pytest.approx(20.0, rel=1e-14)

    def test_gain_cap(self):
        assert GAIN.small_signal_gain_db(135.0) == pytest.approx(30.0, rel=1e-12)
        assert GAIN.small_signal_gain_db(250.0) == pytest.approx(30.0, rel=1e-12)

    def test_elementwise_over_an_array(self):
        currents = np.array([0.0, 45.0, 90.0, 250.0])
        expected = [GAIN.small_signal_gain_db(current) for current in currents]
        assert np.array_equal(GAIN.small_signal_gain_db(currents), expected)
        with pytest.raises(ValueError, match="current_ma"):
            GAIN.small_signal_gain_db(np.array([10.0, -1.0]))

    def test_slope_past_float_range_is_capped(self):
        # 1.7e308 dB at 90 mA: the product overflows at 150 mA, and the cap
        # takes the infinity without a warning.
        steep = GainModel.from_calibration(90.0, 1.7e308, 8.8, 30.0)
        gains = steep.small_signal_gain_db(np.array([0.0, 90.0, 150.0]))
        assert gains.tolist() == [0.0, 30.0, 30.0]

    def test_validation(self):
        with pytest.raises(ValueError, match="db_per_ma"):
            replace(GAIN, db_per_ma=0.0)
        with pytest.raises(ValueError, match="saturation_power_mw"):
            replace(GAIN, saturation_power_mw=-1.0)
        with pytest.raises(ValueError, match="saturation_power_mw"):
            replace(GAIN, saturation_power_mw=math.inf)
        with pytest.raises(ValueError, match="max_small_signal_gain_db"):
            replace(GAIN, max_small_signal_gain_db=35.0)
        with pytest.raises(ValueError, match="calibration"):
            GainModel.from_calibration(0.0, 20.0, 8.8, 30.0)


class TestSaturatedGain:
    def ode_gain(self, g0: float, input_mw: float, psat_mw: float) -> float:
        """Integrate dP/dz = g0*P/(1 + P/Psat) over one amplifier pass."""
        sol = solve_ivp(
            lambda _, p: g0 * p / (1.0 + p / psat_mw),
            (0.0, 1.0),
            [input_mw],
            rtol=1e-12,
            atol=1e-30,
            dense_output=False,
        )
        return sol.y[0, -1] / input_mw

    def test_matches_distributed_ode(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g0 = rng.uniform(0.5, 6.9)
            input_mw = 10.0 ** rng.uniform(-4.0, 1.5)
            psat = rng.uniform(1.0, 20.0)
            gain = replace(
                GAIN, db_per_ma=g0 * DB_PER_NEPER / 100.0, saturation_power_mw=psat
            )
            got = saturated_single_pass_gain(gain, 100.0, input_mw)
            assert got == pytest.approx(self.ode_gain(g0, input_mw, psat), rel=1e-8)

    def test_small_signal_limit(self):
        assert saturated_single_pass_gain(GAIN, 90.0, 0.0) == pytest.approx(
            100.0, rel=1e-12
        )

    def test_zero_current_passes_through(self):
        assert saturated_single_pass_gain(GAIN, 0.0, 1.0) == 1.0

    def test_monotone_in_input_power(self):
        powers = np.logspace(-4, 2, 40)
        gains = [saturated_single_pass_gain(GAIN, 100.0, p) for p in powers]
        assert np.all(np.diff(gains) < 0.0)

    def test_implicit_relation_residual(self):
        g = saturated_single_pass_gain(GAIN, 110.0, 3.0)
        g0 = GAIN.small_signal_gain_db(110.0) / DB_PER_NEPER
        residual = math.log(g) + (g - 1.0) * 3.0 / GAIN.saturation_power_mw - g0
        assert abs(residual) < 1e-12

    def test_rejects_negative_input_power(self):
        with pytest.raises(ValueError, match="input_power_mw must be >= 0"):
            saturated_single_pass_gain(GAIN, 90.0, -1.0)


def lasing_onset_ma(budget, low: float = 0.0, high: float = 200.0) -> float:
    """Smallest current, to float resolution, at which the closed-form
    drop power is positive; ``high`` must lase."""
    while True:
        middle = 0.5 * (low + high)
        if not low < middle < high:
            return high
        drop, _ = output_power_curve(GAIN, budget, middle)
        if drop > 0.0:
            high = middle
        else:
            low = middle


class TestThreshold:
    """Threshold as the current where the lasing curve leaves zero."""

    def test_paper_threshold(self):
        assert lasing_onset_ma(BUDGET) == pytest.approx(90.0, abs=1e-9)

    def test_scales_linearly_with_loss(self):
        assert lasing_onset_ma(single_element(10.0)) == pytest.approx(45.0, abs=1e-9)

    def test_zero_loss(self):
        # A lossless loop has no closed form; two-photon loss bounds its
        # power, and any current at all makes it lase.
        drop, tap = steady_state_roundtrip(
            GAIN, LOSSLESS, np.array([0.0, 1e-9]), tpa_db_per_mw=0.02
        )
        assert drop[0] == 0.0 and tap[0] == 0.0
        assert drop[1] > 0.0 and tap[1] > 0.0

    def test_cap_below_loss_raises(self):
        # The 30 dB gain cap never overcomes a 35 dB loop.
        currents = np.arange(0.0, 301.0, 5.0)
        drop, tap = output_power_curve(GAIN, single_element(35.0), currents)
        assert np.all(drop == 0.0)
        assert np.all(tap == 0.0)
        with pytest.raises(ValueError, match="below threshold"):
            fit_lasing_curve(currents, drop)


class TestOutputPowerCurve:
    def test_zero_at_threshold(self):
        drop, tap = output_power_curve(GAIN, BUDGET, 90.0)
        assert drop == 0.0
        assert tap == 0.0

    def test_zero_below_threshold(self):
        drop, tap = output_power_curve(GAIN, BUDGET, np.array([0.0, 40.0, 89.9]))
        assert np.all(drop == 0.0)
        assert np.all(tap == 0.0)

    def test_zero_for_a_loss_past_exp_range(self):
        # exp(1e300 dB in nepers) overflows; nothing lases, so it is never taken.
        lossy = replace(BUDGET, ring_insertion_db=1e300)
        drop, tap = output_power_curve(GAIN, lossy, np.array([0.0, 150.0]))
        assert np.all(drop == 0.0)
        assert np.all(tap == 0.0)

    def test_linear_above_threshold(self):
        currents = np.arange(95.0, 131.0, 1.0)
        _, tap = output_power_curve(GAIN, BUDGET, currents)
        second_differences = np.diff(tap, n=2)
        slope_step = np.diff(tap).mean()
        assert np.all(np.abs(second_differences) <= 1e-9 * abs(slope_step))

    def test_matches_iterative_fixed_point(self):
        # The bisected root with a vanishing two-photon loss.
        currents = np.array([99.0, 120.0, 150.0, 180.0])
        _, tap_closed = output_power_curve(GAIN, BUDGET, currents)
        _, tap_bisected = steady_state_roundtrip(GAIN, BUDGET, currents, tpa_db_per_mw=1e-12)
        assert tap_closed == pytest.approx(tap_bisected, rel=1e-6)

    def test_pump_power_at_add_port(self):
        # At 250 mA (gain capped at 30 dB) the power reaching the ring
        # add port is the intracavity pump, about 1.87 mW: the drop-port
        # power before the ring's insertion loss.
        drop, _ = steady_state_roundtrip(GAIN, BUDGET, 250.0)
        add_port = drop * 10.0 ** (BUDGET.ring_insertion_db / 10.0)
        assert add_port == pytest.approx(1.8667, rel=1e-3)

    def test_rejects_negative_current(self):
        with pytest.raises(ValueError, match="current_ma"):
            output_power_curve(GAIN, BUDGET, -5.0)

    def test_power_past_float_range_names_the_saturation_power(self):
        huge = replace(GAIN, saturation_power_mw=1.7e308)
        with pytest.raises(ValueError, match="saturation_power_mw"):
            output_power_curve(huge, BUDGET, np.array([60.0, 150.0]))
        # Nothing lases, so nothing overflows.
        drop, _ = output_power_curve(huge, BUDGET, np.array([60.0, 90.0]))
        assert np.all(drop == 0.0)


class TestSteadyState:
    def test_below_threshold_converges_to_zero(self):
        drop, tap = steady_state_roundtrip(GAIN, BUDGET, 80.0)
        assert drop == 0.0
        assert tap == 0.0

    def test_all_powers_nonnegative(self):
        for tpa in (0.0, 0.02):
            drop, tap = steady_state_roundtrip(
                GAIN, BUDGET, np.linspace(0.0, 200.0, 21), tpa_db_per_mw=tpa
            )
            assert np.all(drop >= 0.0)
            assert np.all(tap >= 0.0)

    def test_saturated_gain_clamps_to_loss(self):
        # The saturated-gain solver, fed the amplifier input the loop
        # leaves at 130 mA, returns the inverse loop transmission.
        drop, _ = steady_state_roundtrip(GAIN, BUDGET, 130.0)
        power = drop * 10.0 ** ((BUDGET.amplifier_to_ring_db + BUDGET.ring_insertion_db) / 10.0)
        clamped = 10.0 ** (BUDGET.loop_db / 10.0)
        amplifier = saturated_single_pass_gain(GAIN, 130.0, power / clamped)
        assert amplifier == pytest.approx(clamped, rel=1e-9)

    def test_exactly_at_threshold_is_extinguished(self):
        for tpa in (0.0, 0.02):
            drop, tap = steady_state_roundtrip(GAIN, BUDGET, 90.0, tpa_db_per_mw=tpa)
            assert drop == 0.0
            assert tap == 0.0

    def test_bracket_past_float_range_names_the_saturation_power(self):
        # 5e-324 dB/mW is 0 in nepers, so the bracket is the closed form's
        # unclamped power, and that overflows.
        huge = replace(GAIN, saturation_power_mw=1.7e308)
        with pytest.raises(ValueError, match="saturation_power_mw"):
            steady_state_roundtrip(huge, BUDGET, np.array([150.0]), tpa_db_per_mw=5e-324)
        drop, _ = steady_state_roundtrip(huge, BUDGET, np.array([150.0]), tpa_db_per_mw=0.02)
        assert 0.0 < drop[0] < math.inf

    def test_bracket_past_half_the_float_range_still_bisects(self):
        # At 101 mA the bracket is 9.7e307 mW, and the bisection still
        # reaches the closed-form power.
        huge = replace(GAIN, saturation_power_mw=1.7e308)
        drop, _ = steady_state_roundtrip(huge, BUDGET, np.array([101.0]), tpa_db_per_mw=5e-324)
        excess = (GAIN.small_signal_gain_db(101.0) - BUDGET.loop_db) / DB_PER_NEPER
        g_threshold = 10.0 ** (BUDGET.loop_db / 10.0)
        power = 1.7e308 * (excess * g_threshold / (g_threshold - 1.0))
        to_drop = 10.0 ** (-(BUDGET.amplifier_to_ring_db + BUDGET.ring_insertion_db) / 10.0)
        assert power > np.finfo(float).max / 2.0
        assert drop[0] == pytest.approx(power * to_drop, rel=1e-14)


class TestTwoPhotonAbsorption:
    def test_zero_coefficient_matches_plain_solver(self):
        _, plain = output_power_curve(GAIN, BUDGET, 150.0)
        _, with_tpa = steady_state_roundtrip(GAIN, BUDGET, 150.0, tpa_db_per_mw=0.0)
        assert with_tpa == pytest.approx(plain, rel=1e-12)

    def test_added_loss_reduces_output(self):
        _, plain = steady_state_roundtrip(GAIN, BUDGET, 180.0)
        _, with_tpa = steady_state_roundtrip(GAIN, BUDGET, 180.0, tpa_db_per_mw=0.02)
        assert with_tpa < plain

    def test_deviation_grows_with_current(self):
        currents = np.linspace(100.0, 134.0, 18)
        _, plain = steady_state_roundtrip(GAIN, BUDGET, currents)
        _, rolled = steady_state_roundtrip(GAIN, BUDGET, currents, tpa_db_per_mw=0.02)
        deviations = plain - rolled
        assert np.all(deviations >= 0.0)
        assert np.all(np.diff(deviations) > 0.0)

    def test_rejects_negative_coefficient(self):
        with pytest.raises(ValueError, match="tpa_db_per_mw"):
            steady_state_roundtrip(GAIN, BUDGET, 150.0, tpa_db_per_mw=-0.01)


def reference_power_mw(budget, current_ma: float, tpa_db_per_mw: float) -> float:
    """Amplifier output power at one current, solved one scalar at a time
    with Python floats and libm's ``expm1``: the closed form without
    two-photon loss, else the bisection of ``f(X)`` from
    :func:`steady_state_roundtrip`'s docstring down to float resolution."""
    g0_db = min(GAIN.db_per_ma * current_ma, GAIN.max_small_signal_gain_db)
    excess = max(g0_db - budget.loop_db, 0.0) / DB_PER_NEPER
    g_th = budget.loop_db / DB_PER_NEPER
    psat = GAIN.saturation_power_mw
    if tpa_db_per_mw == 0.0:
        if excess == 0.0:
            return 0.0
        g_threshold = math.exp(g_th)
        return psat * excess * g_threshold / (g_threshold - 1.0)
    t = tpa_db_per_mw / DB_PER_NEPER
    low, high = 0.0, excess / (t - math.expm1(-g_th) / psat)
    while True:
        middle = 0.5 * (low + high)
        if not low < middle < high:
            return high
        if t * middle - middle * math.expm1(-(g_th + t * middle)) / psat < excess:
            low = middle
        else:
            high = middle


def reference_ports(budget, power_mw: float, tpa_db_per_mw: float) -> tuple[float, float]:
    """Drop-port and tap powers of an amplifier output power."""
    extra_db = tpa_db_per_mw * power_mw
    to_drop = 10.0 ** (-(budget.amplifier_to_ring_db + budget.ring_insertion_db + extra_db) / 10.0)
    to_tap = 10.0 ** (-(budget.amplifier_to_tap_db + extra_db) / 10.0)
    return power_mw * to_drop, power_mw * to_tap * 0.01


def assert_loop_closes(current_ma: float, power_mw: float, budget, tpa_db_per_mw: float):
    """The saturated-gain solver, fed the amplifier input that the loop
    leaves at ``power_mw``, reproduces the gain the loop loss clamps."""
    if power_mw == 0.0:
        return
    clamped = 10.0 ** ((budget.loop_db + tpa_db_per_mw * power_mw) / 10.0)
    amplifier = saturated_single_pass_gain(GAIN, current_ma, power_mw / clamped)
    assert amplifier == pytest.approx(clamped, rel=1e-12)


class TestZeroLossLoop:
    def test_closed_form_names_the_zero_loss(self):
        with pytest.raises(ValueError, match="loop loss is 0 dB"):
            output_power_curve(GAIN, LOSSLESS, np.array([0.0, 50.0]))

    def test_roundtrip_without_tpa_names_the_zero_loss(self):
        with pytest.raises(ValueError, match="loop loss is 0 dB"):
            steady_state_roundtrip(GAIN, LOSSLESS, 50.0)

    def test_tpa_bounds_the_power(self):
        drop, tap = steady_state_roundtrip(GAIN, LOSSLESS, 50.0, tpa_db_per_mw=0.02)
        power = reference_power_mw(LOSSLESS, 50.0, 0.02)
        assert 0.0 < power < math.inf
        assert (drop, tap) == pytest.approx(
            reference_ports(LOSSLESS, power, 0.02), rel=1e-15, abs=0.0
        )
        # Without a fixed loss the clamped gain is the TPA loss alone.
        assert_loop_closes(50.0, power, LOSSLESS, 0.02)


CURRENTS = st.lists(st.floats(min_value=0.0, max_value=200.0), min_size=1, max_size=50)
TPA = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=10.0))
# Past about 0.2 dB/mW the drop-port power itself rolls over below 200 mA:
# the amplifier power still grows, but the two-photon loss it brings to
# the ring grows faster.
WEAK_TPA = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=0.1))
# At threshold, and the band just above it where the old fixed-point
# iteration could not settle.
NEAR_THRESHOLD = [90.0, 90.0000001, 90.0005, 90.004]


class TestRootProperties:
    """The array solve against :func:`reference_power_mw`, one current at a time."""

    @settings(deadline=None)
    @given(currents=CURRENTS, tpa=TPA)
    @example(currents=NEAR_THRESHOLD, tpa=0.02)
    @example(currents=NEAR_THRESHOLD, tpa=0.0)
    def test_nonnegative_and_self_consistent(self, currents, tpa):
        currents = np.array(currents)
        drop, tap = steady_state_roundtrip(GAIN, BUDGET, currents, tpa_db_per_mw=tpa)
        dark = GAIN.small_signal_gain_db(currents) <= BUDGET.loop_db
        assert np.all(drop[dark] == 0.0) and np.all(tap[dark] == 0.0)
        assert np.all(drop[~dark] > 0.0) and np.all(tap[~dark] > 0.0)
        for current, got in zip(currents, zip(drop, tap)):
            power = reference_power_mw(BUDGET, current, tpa)
            assert got == pytest.approx(reference_ports(BUDGET, power, tpa), rel=1e-15, abs=0.0)
            assert_loop_closes(current, power, BUDGET, tpa)

    @settings(deadline=None)
    @given(currents=CURRENTS, tpa=WEAK_TPA)
    @example(currents=NEAR_THRESHOLD, tpa=0.02)
    def test_monotone_in_current(self, currents, tpa):
        currents = np.sort(currents)
        drop, tap = steady_state_roundtrip(GAIN, BUDGET, currents, tpa_db_per_mw=tpa)
        assert np.all(np.diff(drop) >= 0.0)
        assert np.all(np.diff(tap) >= 0.0)

    @settings(deadline=None)
    @given(currents=CURRENTS)
    def test_matches_closed_form_without_tpa(self, currents):
        closed = output_power_curve(GAIN, BUDGET, currents)
        roundtrip = steady_state_roundtrip(GAIN, BUDGET, currents)
        assert np.array_equal(roundtrip, closed)

    @settings(deadline=None)
    @given(currents=CURRENTS, tpa=TPA)
    def test_scalar_matches_one_element_array(self, currents, tpa):
        current = currents[0]
        scalar = steady_state_roundtrip(GAIN, BUDGET, current, tpa_db_per_mw=tpa)
        array = steady_state_roundtrip(GAIN, BUDGET, np.array([current]), tpa_db_per_mw=tpa)
        assert [float(power) for power in scalar] == [power[0] for power in array]


class TestTapInversion:
    """The tap reading, scaled back through the 99:1 split and the
    drop-to-tap path of the ledger, recovers the drop-port power."""

    def test_microwatt_example(self):
        # 7.1 dB drop-to-tap path: 1 uW at the tap is 100 uW * 10**0.71.
        drop, tap = steady_state_roundtrip(GAIN, BUDGET, 140.0)
        assert drop / tap * 1e-3 == pytest.approx(0.5128613839913648, rel=1e-12)

    def test_round_trip_identity(self):
        path = 100.0 * 10.0 ** (BUDGET.ring_to_tap_db / 10.0)
        for tpa in (0.0, 0.02):
            drop, tap = steady_state_roundtrip(GAIN, BUDGET, 140.0, tpa_db_per_mw=tpa)
            assert tap * path == pytest.approx(drop, rel=1e-12)
