"""Loop-laser model: loss ledger, gain saturation, threshold and output power.

The loop closes a semiconductor optical amplifier on the add-drop ring:
light leaves the amplifier, crosses a bandpass filter, a 50:50 splitter,
an isolator and an input grating coupler, traverses the ring add-to-drop
path on resonance, exits through the output grating coupler and second
bandpass filter, and finally passes a 99:1 splitter whose 1% arm is the
monitor tap before re-entering the amplifier.

The amplifier applies a homogeneously saturating gain ``g(P) = g0 / (1 +
P/P_sat)`` distributed along its length; integrating that law over one
pass gives the implicit single-pass relation

    ln(G) + (G - 1) * P_in / P_sat = g0

In steady state the loop clamps the saturated gain to the inverse loop
transmission, which makes the self-consistent circulating power linear in
the small-signal gain and hence linear in the drive current — the familiar
threshold characteristic.  With an intensity-dependent (two-photon) ring
loss the clamp moves with the power, and the steady state becomes the root
of one monotone scalar equation in the amplifier output power per current,
bracketed and bisected for the whole current sweep at once.  Both solves
share one contract: an array of currents in, the ``(drop, tap)`` powers
out.  Neither needs the single-pass gain itself, but
:func:`saturated_single_pass_gain` keeps the Newton solve of the relation
above: it is the independent statement of the amplifier law that the
steady states are checked against, and the benchmark tracer counts calls
to it by name.

The reference loop's ledger and amplifier calibration live only in the
packaged ``default.yaml``; nothing here restates them as defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Conversion between decibels and (power) nepers: dB = 10*log10(e) * np.
DB_PER_NEPER = 10.0 / math.log(10.0)


@dataclass(frozen=True)
class LossElement:
    """A single named in-loop component with its insertion loss in dB."""

    name: str
    loss_db: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.loss_db) or self.loss_db < 0.0:
            raise ValueError(f"loss_db must be finite and >= 0, got {self.loss_db}")


@dataclass(frozen=True)
class LossBudget:
    """Ordered ledger of loop losses, walked from the amplifier output.

    Parameters
    ----------
    elements : tuple of LossElement
        At least one component, in the order light meets them, starting at
        the amplifier output and ending at the amplifier input.
    ring_insertion_db : float
        On-resonance add-to-drop insertion loss of the ring, kept as a
        separate calibration term rather than a ledger element.
    ring_index : int
        Position of the ring in the chain: ``elements[:ring_index]`` sit
        between the amplifier output and the ring add port.
    tap_index : int
        Index of the 99:1 splitter.  The monitor tap reads 1% of the
        power arriving at this element's input.
    """

    elements: tuple
    ring_insertion_db: float
    ring_index: int
    tap_index: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.ring_insertion_db < math.inf:
            raise ValueError(
                f"ring_insertion_db must be finite and >= 0, got {self.ring_insertion_db}"
            )
        if not 0 <= self.ring_index <= len(self.elements):
            raise ValueError(f"ring_index {self.ring_index} outside the element chain")
        if not 0 <= self.tap_index < len(self.elements):
            raise ValueError(f"tap_index {self.tap_index} outside the element chain")
        if self.tap_index < self.ring_index:
            raise ValueError("the 99:1 tap must come after the ring in the loop")

    @property
    def total_db(self) -> float:
        """Sum of the component losses, excluding the ring insertion."""
        return float(sum(element.loss_db for element in self.elements))

    @property
    def loop_db(self) -> float:
        """Full single-loop loss: components plus ring insertion."""
        return self.total_db + self.ring_insertion_db

    @property
    def amplifier_to_ring_db(self) -> float:
        """Path loss from amplifier output to the ring add port."""
        return float(sum(e.loss_db for e in self.elements[: self.ring_index]))

    @property
    def ring_to_tap_db(self) -> float:
        """Path loss from the ring drop port to the 99:1 splitter input."""
        return float(
            sum(e.loss_db for e in self.elements[self.ring_index : self.tap_index])
        )

    @property
    def amplifier_to_tap_db(self) -> float:
        """Loss from amplifier output to tap input, including the ring."""
        return self.amplifier_to_ring_db + self.ring_insertion_db + self.ring_to_tap_db


@dataclass(frozen=True)
class GainModel:
    """Current-driven amplifier gain with homogeneous saturation.

    The gain-current slope is stored in dB per mA so that calibration
    points specified in decibels are reproduced exactly.
    :meth:`small_signal_gain_db` is the one statement of the capped gain
    law ``min(k*I, cap)``; it maps an array of currents elementwise.

    Parameters
    ----------
    db_per_ma : float
        Small-signal gain slope in dB per mA of drive current.
    saturation_power_mw : float
        Saturation power of the homogeneous gain law, in mW.
    max_small_signal_gain_db : float
        Hard cap on the small-signal gain; the device cannot exceed this
        no matter the current.  At most 30 dB.
    """

    db_per_ma: float
    saturation_power_mw: float
    max_small_signal_gain_db: float

    def __post_init__(self) -> None:
        if self.db_per_ma <= 0.0:
            raise ValueError(f"db_per_ma must be positive, got {self.db_per_ma}")
        if not 0.0 < self.saturation_power_mw < math.inf:
            raise ValueError(
                f"saturation_power_mw must be positive and finite, got "
                f"{self.saturation_power_mw}"
            )
        if not 0.0 < self.max_small_signal_gain_db <= 30.0:
            raise ValueError(
                f"max_small_signal_gain_db must lie in (0, 30], got "
                f"{self.max_small_signal_gain_db}"
            )

    @classmethod
    def from_calibration(
        cls,
        current_ma: float,
        gain_db: float,
        saturation_power_mw: float,
        max_small_signal_gain_db: float,
    ) -> "GainModel":
        """Fix the gain slope from one measured (current, gain) pair."""
        if current_ma <= 0.0 or gain_db <= 0.0:
            raise ValueError(
                f"calibration needs positive current and gain, got "
                f"({current_ma} mA, {gain_db} dB)"
            )
        return cls(
            db_per_ma=gain_db / current_ma,
            saturation_power_mw=saturation_power_mw,
            max_small_signal_gain_db=max_small_signal_gain_db,
        )

    def small_signal_gain_db(self, current_ma):
        """Capped small-signal gain ``min(slope * I, cap)`` in dB, elementwise."""
        current_ma = np.asarray(current_ma, dtype=float)
        if np.any(current_ma < 0.0):
            raise ValueError("current_ma must be >= 0")
        # A product past float range is infinite and then capped, so exact.
        with np.errstate(over="ignore"):
            return np.minimum(self.db_per_ma * current_ma, self.max_small_signal_gain_db)


def saturated_single_pass_gain(
    gain: GainModel, current_ma: float, input_power_mw: float
) -> float:
    """Single-pass power gain of the saturated amplifier.

    Solves ``ln(G) + (G - 1) * P_in / P_sat = g0`` for ``G`` by Newton
    iteration; the left side is strictly increasing in ``G``, so the
    root is unique.

    Parameters
    ----------
    gain : GainModel
        Amplifier parameters.
    current_ma : float
        Drive current in mA, setting ``g0 = min(k*I, cap)``.
    input_power_mw : float
        Power entering the amplifier, in mW.

    Returns
    -------
    float
        The power gain ``G >= 1`` (``G = exp(g0)`` for vanishing input).
    """
    if input_power_mw < 0.0:
        raise ValueError(f"input_power_mw must be >= 0, got {input_power_mw}")
    g0 = float(gain.small_signal_gain_db(current_ma)) / DB_PER_NEPER
    if g0 == 0.0:
        return 1.0
    p = input_power_mw / gain.saturation_power_mw
    if p == 0.0:
        return math.exp(g0)
    # Start from whichever bound is tighter: the unsaturated gain or the
    # fully saturated linear-additive limit.
    x = min(math.exp(g0), 1.0 + g0 / p)
    for _ in range(200):
        residual = math.log(x) + (x - 1.0) * p - g0
        slope = 1.0 / x + p
        step = residual / slope
        x_next = x - step
        if x_next < 1.0:
            x_next = 0.5 * (x + 1.0)
        if abs(x_next - x) <= 1e-15 * x:
            return x_next
        x = x_next
    return x


def _finite_power(power_mw):
    """``power_mw``, which must lie in float range everywhere."""
    if not np.all(np.isfinite(power_mw)):
        raise ValueError("the lasing power lies past float range; lower saturation_power_mw")
    return power_mw


def _port_powers(budget: LossBudget, amp_out_mw, extra_ring_db=0.0):
    """Drop-port and 1% tap powers of an amplifier output power, with extra ring loss."""
    to_drop = 10.0 ** (
        -(budget.amplifier_to_ring_db + budget.ring_insertion_db + extra_ring_db) / 10.0
    )
    to_tap = 10.0 ** (-(budget.amplifier_to_tap_db + extra_ring_db) / 10.0)
    return amp_out_mw * to_drop, amp_out_mw * to_tap * 0.01


def output_power_curve(gain: GainModel, budget: LossBudget, current_ma):
    """Closed-form lasing characteristic versus drive current.

    Above threshold the loop clamps the saturated gain at the inverse
    loop transmission ``G_th``, leaving a circulating power linear in the
    small-signal gain:

        P_amp_out = P_sat * (g0 - g_th) * G_th / (G_th - 1)

    which is zero exactly at threshold and has no finite value for a
    0 dB loop loss, rejected with ``ValueError``, as is a power past float
    range.  The returned tap power is 1% of the power arriving at the 99:1
    splitter; the drop-port power is the power exiting the ring.

    Parameters
    ----------
    gain : GainModel
        Amplifier parameters.
    budget : LossBudget
        Loop loss ledger.
    current_ma : float or ndarray
        Drive current(s) in mA, each >= 0.

    Returns
    -------
    (ndarray, ndarray)
        ``(drop_port_power_mw, tap_power_mw)``; zeros below threshold.
    """
    g0_db = gain.small_signal_gain_db(current_ma)
    if budget.loop_db == 0.0:
        raise ValueError(
            "the loop loss is 0 dB, so without two-photon absorption the "
            "lasing power has no finite steady state"
        )
    # Work the gain excess in dB so a calibration point sitting exactly
    # at threshold yields exactly zero.
    excess = np.clip(g0_db - budget.loop_db, 0.0, None) / DB_PER_NEPER
    amp_out = excess
    # Where nothing lases, a loop loss above the gain cap may be too large
    # for exp(), so it is never taken.
    if np.any(excess > 0.0):
        g_threshold = math.exp(budget.loop_db / DB_PER_NEPER)
        with np.errstate(over="ignore"):
            amp_out = gain.saturation_power_mw * excess * g_threshold / (g_threshold - 1.0)
        amp_out = _finite_power(amp_out)
    return _port_powers(budget, amp_out)


def steady_state_roundtrip(
    gain: GainModel,
    budget: LossBudget,
    current_ma,
    tpa_db_per_mw: float = 0.0,
):
    """Self-consistent lasing characteristic with two-photon ring loss.

    The loop clamps the saturated gain to the inverse loop transmission,
    ``ln(G) = g_th + t*X``, where ``X`` is the amplifier output power and
    ``t*X`` the two-photon loss.  With ``P_in = X / G`` the amplifier law
    then leaves one strictly increasing equation in ``X`` per current,

        f(X) = g_th + t*X + (X / P_sat) * (1 - exp(-(g_th + t*X))) - g0 = 0,

    with ``f(0) = g_th - g0``: no power at or below threshold (decided
    in dB, as in :func:`output_power_curve`) and one root above it.
    Without two-photon absorption the root is the closed form, and this
    returns :func:`output_power_curve`.  With it, every current's root is
    bisected at once, each in its own bracket
    ``[0, (g0 - g_th) / (t + (1 - exp(-g_th)) / P_sat)]``, until no
    bracket holds a float strictly inside it.

    Parameters
    ----------
    gain : GainModel
        Amplifier parameters.
    budget : LossBudget
        Loop loss ledger.
    current_ma : float or ndarray
        Drive current(s) in mA, each >= 0.
    tpa_db_per_mw : float
        Extra ring insertion loss per mW of circulating power (measured
        at the amplifier output), modeling two-photon absorption.  Zero
        disables the effect.

    Returns
    -------
    (ndarray, ndarray)
        ``(drop_port_power_mw, tap_power_mw)`` at the ring drop port and
        the 1% monitor tap; zeros at and below threshold.

    Raises
    ------
    ValueError
        If a current is negative, if ``tpa_db_per_mw`` is negative or not
        finite, if the loop loss is 0 dB with no two-photon absorption to
        bound the power, or if the power bracket lies past float range.
    """
    if not 0.0 <= tpa_db_per_mw < math.inf:
        raise ValueError(f"tpa_db_per_mw must be finite and >= 0, got {tpa_db_per_mw}")
    if tpa_db_per_mw == 0.0:
        return output_power_curve(gain, budget, current_ma)

    g0_db = gain.small_signal_gain_db(current_ma)
    excess = np.clip(g0_db - budget.loop_db, 0.0, None) / DB_PER_NEPER
    g_th = budget.loop_db / DB_PER_NEPER
    t = tpa_db_per_mw / DB_PER_NEPER
    psat = gain.saturation_power_mw
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        high = excess / (t - math.expm1(-g_th) / psat)
    high = _finite_power(high)
    low = np.zeros_like(high)
    while True:
        # Bit-equal to 0.5 * (low + high) above the subnormals, but two
        # ends near float max cannot overflow a sum.
        middle = 0.5 * low + 0.5 * high
        if not np.any((low < middle) & (middle < high)):
            break
        # A settled bracket's middle is one of its ends.  The predicate
        # holds at ``low`` (0, or a point found below the root), so ``high``,
        # the root, stays put.
        loss = g_th + t * middle
        below = t * middle - middle * np.expm1(-loss) / psat < excess
        low = np.where(below, middle, low)
        high = np.where(below, high, middle)
    return _port_powers(budget, high, tpa_db_per_mw * high)
