"""Stimulated four-wave mixing in the ring.

Two pump photons on the lasing resonance convert into a signal photon
and an idler photon on the neighboring resonances.  Energy conservation
places the idler, and the perturbative (undepleted-pump) conversion
formula sets its power.  The three resonances share one coupling model,
so one on-resonance intensity buildup weights all three waves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from loopfwm.ring import RingCoupling, RingGeometry, field_enhancement

#: Tolerance on the energy-conservation residual |2/lp - 1/ls - 1/li|,
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
        The three wavelengths in nm, each on its own ring resonance.  The
        residual of ``2/lp - 1/ls - 1/li`` may be at most
        :data:`ENERGY_TOLERANCE_PER_NM`.
    """

    pump_nm: float
    signal_nm: float
    idler_nm: float

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
        if residual > ENERGY_TOLERANCE_PER_NM:
            raise ValueError(
                f"triplet violates energy conservation: residual "
                f"{residual:.3e} /nm exceeds tolerance {ENERGY_TOLERANCE_PER_NM:.3e} /nm"
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


def conversion_sweep(
    axis: str,
    values_mw: np.ndarray,
    fixed_mw: float,
    geometry: RingGeometry,
    coupling: RingCoupling,
    gamma_per_w_m: float,
):
    """Idler power versus pump or signal power, the other held fixed.

    In the perturbative (undepleted-pump, phase-matched) limit,

        P_i = (gamma * L)**2 * P_p**2 * P_s * B**2 * B * B

    with ``L`` the ring circumference and ``B`` the on-resonance intensity
    buildup that the pump, signal and idler resonances share.

    Parameters
    ----------
    axis : {"pump", "signal"}
        Which coupled power is swept.
    values_mw : ndarray
        Swept power values in mW.
    fixed_mw : float
        The fixed power of the other wave, in mW.
    gamma_per_w_m : float
        Nonlinear parameter in 1/(W*m).

    Returns
    -------
    ndarray
        Idler power in mW for each swept value.
    """
    if axis not in ("pump", "signal"):
        raise ValueError(f"axis must be 'pump' or 'signal', got {axis!r}")
    values_mw = np.asarray(values_mw, dtype=float)
    fixed_mw = np.asarray(fixed_mw, dtype=float)
    if np.any(values_mw < 0.0) or fixed_mw < 0.0:
        raise ValueError("pump and signal powers must be >= 0")
    if gamma_per_w_m <= 0.0:
        raise ValueError(f"gamma_per_w_m must be positive, got {gamma_per_w_m}")
    pump_mw, signal_mw = (values_mw, fixed_mw) if axis == "pump" else (fixed_mw, values_mw)
    buildup = float(field_enhancement(0.0, coupling))
    length_m = geometry.circumference_nm * 1e-9
    # A numpy square overflows to inf, which callers can test for; a Python
    # float power would raise OverflowError instead.
    idler_w = (
        np.float64(gamma_per_w_m * length_m) ** 2
        * (pump_mw * 1e-3) ** 2
        * (signal_mw * 1e-3)
        * buildup**2
        * buildup
        * buildup
    )
    return idler_w * 1e3
