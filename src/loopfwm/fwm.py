"""Stimulated four-wave mixing in the ring.

Two pump photons on the lasing resonance convert into a signal photon
and an idler photon on the neighboring resonances.  Energy conservation
places the idler, and the perturbative (undepleted-pump) conversion
formula sets its power, with each wave weighted by the ring's intensity
buildup on its own resonance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from loopfwm.ring import RingCoupling, RingGeometry, field_enhancement

#: Default tolerance on the energy-conservation residual |2/lp - 1/ls - 1/li|,
#: in 1/nm.  Loose enough to accept measured resonance triplets (which sit a
#: few tens of pm off perfect conservation), tight enough to reject triplets
#: that are off by a fraction of a linewidth.
ENERGY_TOLERANCE_PER_NM = 2.5e-7


def idler_wavelength(pump_nm: float, signal_nm: float) -> float:
    """Idler wavelength fixed by energy conservation, ``1/li = 2/lp - 1/ls``.

    Parameters
    ----------
    pump_nm : float
        Pump wavelength in nm (two pump photons are consumed).
    signal_nm : float
        Signal wavelength in nm.

    Returns
    -------
    float
        Idler wavelength in nm.

    Raises
    ------
    ValueError
        For non-positive wavelengths, or when the signal sits at or
        below half the pump wavelength, where the idler frequency would
        be zero or negative.
    """
    if pump_nm <= 0.0 or signal_nm <= 0.0:
        raise ValueError(
            f"wavelengths must be positive, got pump={pump_nm}, signal={signal_nm}"
        )
    inverse = 2.0 / pump_nm - 1.0 / signal_nm
    if inverse <= 0.0:
        raise ValueError(
            f"signal at {signal_nm} nm is at or below half the pump wavelength; "
            f"no idler satisfies energy conservation"
        )
    return 1.0 / inverse


@dataclass(frozen=True)
class FwmTriplet:
    """Pump/signal/idler wavelengths satisfying energy conservation.

    Parameters
    ----------
    pump_nm, signal_nm, idler_nm : float
        The three wavelengths in nm, each on its own ring resonance.
    tolerance_per_nm : float
        Largest allowed residual of ``2/lp - 1/ls - 1/li`` in 1/nm.
    """

    pump_nm: float
    signal_nm: float
    idler_nm: float
    tolerance_per_nm: float = ENERGY_TOLERANCE_PER_NM

    def __post_init__(self) -> None:
        for name, value in (
            ("pump_nm", self.pump_nm),
            ("signal_nm", self.signal_nm),
            ("idler_nm", self.idler_nm),
        ):
            if value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        if len({self.pump_nm, self.signal_nm, self.idler_nm}) != 3:
            raise ValueError(
                f"pump, signal and idler must sit on distinct resonances, got "
                f"({self.pump_nm}, {self.signal_nm}, {self.idler_nm})"
            )
        residual = abs(self.energy_residual_per_nm)
        if residual > self.tolerance_per_nm:
            raise ValueError(
                f"triplet violates energy conservation: residual "
                f"{residual:.3e} /nm exceeds tolerance {self.tolerance_per_nm:.3e} /nm"
            )

    @property
    def energy_residual_per_nm(self) -> float:
        """Signed energy-conservation residual ``2/lp - 1/ls - 1/li`` in 1/nm."""
        return 2.0 / self.pump_nm - 1.0 / self.signal_nm - 1.0 / self.idler_nm

    @classmethod
    def from_pump_signal(cls, pump_nm: float, signal_nm: float) -> "FwmTriplet":
        """Complete a triplet with the energy-conserving idler."""
        return cls(
            pump_nm=pump_nm,
            signal_nm=signal_nm,
            idler_nm=idler_wavelength(pump_nm, signal_nm),
        )


def idler_power_mw(
    pump_mw,
    signal_mw,
    gamma_per_w_m: float,
    interaction_length_m: float,
    pump_enhancement: float = 1.0,
    signal_enhancement: float = 1.0,
    idler_enhancement: float = 1.0,
):
    """Generated idler power in the perturbative stimulated-FWM limit.

    The conversion scales with the square of the coupled pump power and
    linearly with the coupled signal power,

        P_i = (gamma * L)**2 * P_p**2 * P_s
              * IE_p**2 * IE_s * IE_i

    where each ``IE`` is the ring's intensity buildup on the respective
    resonance; the pump enters with the fourth power of its *field*
    enhancement, i.e. the square of its intensity enhancement.  Pump
    depletion and phase mismatch are neglected.

    Parameters
    ----------
    pump_mw : float or ndarray
        Pump power coupled to the add port, in mW.
    signal_mw : float or ndarray
        Signal power coupled to the ring, in mW.
    gamma_per_w_m : float
        Nonlinear parameter in 1/(W*m).
    interaction_length_m : float
        Interaction length (the ring circumference), in meters.
    pump_enhancement, signal_enhancement, idler_enhancement : float
        Intensity buildup factors on the three resonances.

    Returns
    -------
    float or ndarray
        Idler power in mW (absolute within the calibration of ``gamma``).
    """
    pump_mw = np.asarray(pump_mw, dtype=float)
    signal_mw = np.asarray(signal_mw, dtype=float)
    if np.any(pump_mw < 0.0) or np.any(signal_mw < 0.0):
        raise ValueError("pump_mw and signal_mw must be >= 0")
    if gamma_per_w_m <= 0.0:
        raise ValueError(f"gamma_per_w_m must be positive, got {gamma_per_w_m}")
    if interaction_length_m <= 0.0:
        raise ValueError(
            f"interaction_length_m must be positive, got {interaction_length_m}"
        )
    for name, value in (
        ("pump_enhancement", pump_enhancement),
        ("signal_enhancement", signal_enhancement),
        ("idler_enhancement", idler_enhancement),
    ):
        if value <= 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    pump_w = pump_mw * 1e-3
    signal_w = signal_mw * 1e-3
    idler_w = (
        (gamma_per_w_m * interaction_length_m) ** 2
        * pump_w**2
        * signal_w
        * pump_enhancement**2
        * signal_enhancement
        * idler_enhancement
    )
    result = idler_w * 1e3
    return float(result) if result.ndim == 0 else result


def idler_power_on_ring(
    triplet: FwmTriplet,
    pump_mw,
    signal_mw,
    geometry: RingGeometry,
    coupling: RingCoupling,
    gamma_per_w_m: float,
):
    """Idler power with enhancements evaluated at the ring's resonance centers.

    With a single wavelength-independent coupling model the pump, signal
    and idler resonances share one on-resonance buildup.
    """
    on_resonance = float(field_enhancement(0.0, coupling))
    return idler_power_mw(
        pump_mw,
        signal_mw,
        gamma_per_w_m=gamma_per_w_m,
        interaction_length_m=geometry.circumference_nm * 1e-9,
        pump_enhancement=on_resonance,
        signal_enhancement=on_resonance,
        idler_enhancement=on_resonance,
    )


def conversion_sweep(
    axis: str,
    values_mw: np.ndarray,
    fixed_mw: float,
    triplet: FwmTriplet,
    geometry: RingGeometry,
    coupling: RingCoupling,
    gamma_per_w_m: float,
):
    """Idler power versus pump or signal power, the other held fixed.

    Parameters
    ----------
    axis : {"pump", "signal"}
        Which coupled power is swept.
    values_mw : ndarray
        Swept power values in mW.
    fixed_mw : float
        The fixed power of the other wave, in mW.

    Returns
    -------
    ndarray
        Idler power in mW for each swept value.
    """
    if axis not in ("pump", "signal"):
        raise ValueError(f"axis must be 'pump' or 'signal', got {axis!r}")
    values_mw = np.asarray(values_mw, dtype=float)
    if axis == "pump":
        return idler_power_on_ring(
            triplet, values_mw, fixed_mw, geometry, coupling, gamma_per_w_m
        )
    return idler_power_on_ring(
        triplet, fixed_mw, values_mw, geometry, coupling, gamma_per_w_m
    )
