"""Add-drop microring resonator model.

All-pass and add-drop ring spectra are governed by the same interference
sum over round trips.  This module keeps the conventions minimal and
explicit:

* ``t1``/``t2`` are the *field* (amplitude) transmission coefficients of
  the bus-side and drop-side directional couplers; the corresponding
  cross-coupled amplitudes are ``kappa = sqrt(1 - t**2)``.
* ``a`` is the field transmission for one full circumference of
  propagation loss (``a = 1`` means a lossless ring).
* ``phase`` is the accumulated round-trip phase, measured from the
  nearest resonance, so every function peaks (or dips) at ``phase = 0``.

Wavelength-domain helpers convert between detuning and round-trip phase
using a fixed group index, which pins an exact resonance at a caller
supplied anchor wavelength — the natural parametrization when the model
is calibrated against a measured resonance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Speed of light in nm*GHz (equivalently um*THz), the natural unit for
#: converting between wavelength in nanometers and frequency in gigahertz.
SPEED_OF_LIGHT_NM_GHZ = 2.99792458e8

#: Smallest round-trip amplitude factor ``t1*t2*a`` for which the drop
#: lineshape still falls to half maximum within half a free spectral
#: range.  Below this the resonance has no well-defined FWHM.
_MIN_HALF_MAX_FACTOR = 3.0 - 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class RingGeometry:
    """Physical layout of the ring: radius and group index.

    Parameters
    ----------
    radius_um : float
        Ring radius in micrometers.  Must be positive.
    group_index : float
        Group index of the guided mode, assumed constant over the
        spectral window of interest.  Must lie in [1, 6], the plausible
        range for dielectric waveguides.
    """

    radius_um: float
    group_index: float

    def __post_init__(self) -> None:
        if self.radius_um <= 0.0:
            raise ValueError(f"radius_um must be positive, got {self.radius_um}")
        if not 1.0 <= self.group_index <= 6.0:
            raise ValueError(
                f"group_index must lie in [1, 6], got {self.group_index}"
            )

    @property
    def circumference_nm(self) -> float:
        """Ring circumference ``2*pi*R`` in nanometers."""
        return 2.0 * math.pi * self.radius_um * 1e3

    def fsr_nm(self, wavelength_nm: float) -> float:
        """Free spectral range ``lambda**2 / (n_g * L)`` near ``wavelength_nm``."""
        return wavelength_nm**2 / (self.group_index * self.circumference_nm)

    @classmethod
    def from_fsr(cls, radius_um: float, fsr_nm: float, wavelength_nm: float) -> "RingGeometry":
        """Build a geometry whose group index reproduces a measured FSR.

        Parameters
        ----------
        radius_um : float
            Ring radius in micrometers.
        fsr_nm : float
            Measured free spectral range in nanometers.
        wavelength_nm : float
            Wavelength at which the FSR was measured.

        Returns
        -------
        RingGeometry
            Geometry with ``group_index = lambda**2 / (FSR * L)``.
        """
        if fsr_nm <= 0.0:
            raise ValueError(f"fsr_nm must be positive, got {fsr_nm}")
        if radius_um <= 0.0:
            raise ValueError(f"radius_um must be positive, got {radius_um}")
        circumference_nm = 2.0 * math.pi * radius_um * 1e3
        try:
            group_index = wavelength_nm**2 / (fsr_nm * circumference_nm)
        except OverflowError as exc:
            raise ValueError(f"wavelength_nm {wavelength_nm} is out of range") from exc
        except ZeroDivisionError as exc:
            raise ValueError(
                f"fsr_nm {fsr_nm} times the circumference of radius_um {radius_um} "
                f"underflows to 0"
            ) from exc
        return cls(radius_um=radius_um, group_index=group_index)


@dataclass(frozen=True)
class RingCoupling:
    """Coupler transmissions and round-trip loss of an add-drop ring.

    Parameters
    ----------
    through_amplitude : float
        Field transmission ``t1`` of the input (bus) coupler, in (0, 1).
    drop_amplitude : float
        Field transmission ``t2`` of the drop coupler, in (0, 1).
    loss_amplitude : float
        Field transmission ``a`` for one full round trip of propagation
        loss, in (0, 1].
    """

    through_amplitude: float
    drop_amplitude: float
    loss_amplitude: float

    def __post_init__(self) -> None:
        if not 0.0 < self.through_amplitude < 1.0:
            raise ValueError(
                f"through_amplitude must lie in (0, 1), got {self.through_amplitude}"
            )
        if not 0.0 < self.drop_amplitude < 1.0:
            raise ValueError(f"drop_amplitude must lie in (0, 1), got {self.drop_amplitude}")
        if not 0.0 < self.loss_amplitude <= 1.0:
            raise ValueError(f"loss_amplitude must lie in (0, 1], got {self.loss_amplitude}")

    @property
    def roundtrip_factor(self) -> float:
        """Net field factor ``t1 * t2 * a`` for one resonant round trip."""
        return self.through_amplitude * self.drop_amplitude * self.loss_amplitude


def _resonant_denominator(phase, coupling: RingCoupling):
    """Complex denominator ``1 - t1*t2*a*exp(i*phase)`` shared by all ports."""
    phase = np.asarray(phase, dtype=float)
    return 1.0 - coupling.roundtrip_factor * np.exp(1j * phase)


def roundtrip_phase(wavelength_nm, resonance_nm: float, geometry: RingGeometry):
    """Round-trip phase accumulated relative to an anchored resonance.

    Parameters
    ----------
    wavelength_nm : float or ndarray
        Evaluation wavelength(s) in nanometers.
    resonance_nm : float
        Anchor wavelength pinned to an exact resonance (zero phase).
    geometry : RingGeometry
        Ring layout supplying group index and circumference.

    Returns
    -------
    float or ndarray
        ``2*pi*n_g*L*(1/lambda - 1/lambda_0)``; one free spectral range
        corresponds to a ``2*pi`` change.
    """
    wavelength_nm = np.asarray(wavelength_nm, dtype=float)
    optical_length = geometry.group_index * geometry.circumference_nm
    return 2.0 * math.pi * optical_length * (1.0 / wavelength_nm - 1.0 / resonance_nm)


def through_transmission(phase, coupling: RingCoupling):
    """Intensity transmission of the through (bus) port.

    Parameters
    ----------
    phase : float or ndarray
        Round-trip phase measured from resonance.
    coupling : RingCoupling
        Coupler and loss parameters.

    Returns
    -------
    float or ndarray
        ``|(t1 - t2*a*exp(i*phase)) / (1 - t1*t2*a*exp(i*phase))|**2``,
        dipping at ``phase = 0``.
    """
    phase = np.asarray(phase, dtype=float)
    t1 = coupling.through_amplitude
    t2a = coupling.drop_amplitude * coupling.loss_amplitude
    numerator = t1 - t2a * np.exp(1j * phase)
    return np.abs(numerator / _resonant_denominator(phase, coupling)) ** 2


def drop_transmission(phase, coupling: RingCoupling):
    """Intensity transmission of the drop port.

    The dropped field crosses both couplers and half the ring, so the
    intensity carries one factor of the round-trip loss ``a`` together
    with both power cross-couplings.

    Parameters
    ----------
    phase : float or ndarray
        Round-trip phase measured from resonance.
    coupling : RingCoupling
        Coupler and loss parameters.

    Returns
    -------
    float or ndarray
        ``kappa1**2 * kappa2**2 * a / |1 - t1*t2*a*exp(i*phase)|**2``,
        peaking at ``phase = 0``.
    """
    kappa1_sq = 1.0 - coupling.through_amplitude**2
    kappa2_sq = 1.0 - coupling.drop_amplitude**2
    numerator = kappa1_sq * kappa2_sq * coupling.loss_amplitude
    return numerator / np.abs(_resonant_denominator(phase, coupling)) ** 2


def field_enhancement(phase, coupling: RingCoupling):
    """Intracavity intensity buildup relative to the input-port intensity.

    Evaluated just after the input coupler, where the circulating field
    is ``i*kappa1 / (1 - t1*t2*a*exp(i*phase))`` times the input field.

    Parameters
    ----------
    phase : float or ndarray
        Round-trip phase measured from resonance.
    coupling : RingCoupling
        Coupler and loss parameters.

    Returns
    -------
    float or ndarray
        Dimensionless circulating/input intensity ratio.
    """
    kappa1_sq = 1.0 - coupling.through_amplitude**2
    return kappa1_sq / np.abs(_resonant_denominator(phase, coupling)) ** 2


def through_spectrum(wavelength_nm, resonance_nm: float, geometry: RingGeometry, coupling: RingCoupling):
    """Through-port intensity spectrum versus wavelength."""
    return through_transmission(roundtrip_phase(wavelength_nm, resonance_nm, geometry), coupling)


def drop_spectrum(wavelength_nm, resonance_nm: float, geometry: RingGeometry, coupling: RingCoupling):
    """Drop-port intensity spectrum versus wavelength."""
    return drop_transmission(roundtrip_phase(wavelength_nm, resonance_nm, geometry), coupling)


def drop_fwhm_phase(coupling: RingCoupling) -> float:
    """Full width at half maximum of the drop lineshape, in phase units.

    The drop intensity is proportional to ``1 / (1 + r**2 - 2*r*cos(phase))``
    with ``r = t1*t2*a``; solving for the half-maximum phase gives
    ``cos(phase_half) = (4*r - 1 - r**2) / (2*r)`` exactly, with no
    Lorentzian approximation.

    Raises
    ------
    ValueError
        If ``r <= 3 - 2*sqrt(2)``, where the lineshape never falls to
        half maximum within half a free spectral range.
    """
    r = coupling.roundtrip_factor
    if r <= _MIN_HALF_MAX_FACTOR:
        raise ValueError(
            f"round-trip factor {r:.6f} is too small for a resolvable linewidth "
            f"(needs > {_MIN_HALF_MAX_FACTOR:.6f})"
        )
    cos_half = (4.0 * r - 1.0 - r**2) / (2.0 * r)
    return 2.0 * math.acos(cos_half)


def drop_fwhm_nm(resonance_nm: float, geometry: RingGeometry, coupling: RingCoupling) -> float:
    """Full width at half maximum of the drop resonance, in nanometers.

    Raises
    ------
    ValueError
        If the width is not finite and positive, as for a resonance so
        short or long that its square leaves float range.
    """
    optical_length = geometry.group_index * geometry.circumference_nm
    try:
        fwhm = drop_fwhm_phase(coupling) * resonance_nm**2 / (2.0 * math.pi * optical_length)
    except OverflowError:
        fwhm = math.inf
    if not 0.0 < fwhm < math.inf:
        raise ValueError(f"resonance at {resonance_nm} nm has no finite linewidth (got {fwhm} nm)")
    return fwhm


def loaded_q(resonance_nm: float, geometry: RingGeometry, coupling: RingCoupling) -> float:
    """Loaded quality factor ``lambda_0 / FWHM`` of the drop resonance."""
    return resonance_nm / drop_fwhm_nm(resonance_nm, geometry, coupling)


def linewidth_ghz(resonance_nm: float, geometry: RingGeometry, coupling: RingCoupling) -> float:
    """Loaded linewidth of the drop resonance in ordinary frequency (GHz).

    Raises
    ------
    ValueError
        If the linewidth, or the width in nm it is converted from, is not
        finite and positive.
    """
    fwhm_nm = drop_fwhm_nm(resonance_nm, geometry, coupling)
    linewidth = SPEED_OF_LIGHT_NM_GHZ * fwhm_nm / resonance_nm**2
    if not 0.0 < linewidth < math.inf:
        raise ValueError(
            f"resonance at {resonance_nm} nm has no finite linewidth (got {linewidth} GHz)"
        )
    return linewidth


def solve_coupling(
    geometry: RingGeometry,
    resonance_nm: float,
    loaded_q_target: float,
    through_extinction: float,
) -> RingCoupling:
    """Calibrate symmetric couplers and loss from two measured numbers.

    Given a target loaded quality factor and the residual through-port
    transmission on resonance, solve in closed form for a symmetric
    add-drop ring (``t1 = t2 = t``) with round-trip loss ``a``:

    1. the loaded linewidth fixes the round-trip factor ``r = t**2 * a``
       through the exact half-maximum relation of :func:`drop_fwhm_phase`;
    2. the on-resonance extinction ``E = (t*(1 - a) / (1 - r))**2`` then
       yields ``t`` as the positive root of ``t**2 - sqrt(E)*(1 - r)*t - r``.

    Parameters
    ----------
    geometry : RingGeometry
        Ring layout supplying group index and circumference.
    resonance_nm : float
        Resonance wavelength the calibration refers to.
    loaded_q_target : float
        Desired loaded quality factor of the drop resonance.
    through_extinction : float
        Through-port intensity transmission on resonance, in [0, 1).

    Returns
    -------
    RingCoupling
        Symmetric coupling whose :func:`loaded_q` and on-resonance
        :func:`through_transmission` reproduce the two targets.

    Raises
    ------
    ValueError
        If the targets are unphysical (non-positive quality factor, an
        extinction outside [0, 1), or a linewidth wider than the ring
        can support).
    """
    if loaded_q_target <= 0.0:
        raise ValueError(f"loaded_q_target must be positive, got {loaded_q_target}")
    if not 0.0 <= through_extinction < 1.0:
        raise ValueError(
            f"through_extinction must lie in [0, 1), got {through_extinction}"
        )
    optical_length = geometry.group_index * geometry.circumference_nm
    fwhm_phase = 2.0 * math.pi * optical_length / (loaded_q_target * resonance_nm)
    if fwhm_phase >= 2.0 * math.pi:
        raise ValueError(
            f"loaded_q_target {loaded_q_target} implies a linewidth too wide for "
            f"this ring (wider than one free spectral range)"
        )
    cos_half = math.cos(fwhm_phase / 2.0)
    # Invert cos(phase_half) = (4r - 1 - r**2)/(2r) for the root in (0, 1).
    r = (2.0 - cos_half) - math.sqrt((2.0 - cos_half) ** 2 - 1.0)
    if r <= _MIN_HALF_MAX_FACTOR:
        raise ValueError(
            f"loaded_q_target {loaded_q_target} implies a linewidth too wide for "
            f"this ring (round-trip factor {r:.6f})"
        )
    s = math.sqrt(through_extinction)
    t = 0.5 * (s * (1.0 - r) + math.sqrt(s**2 * (1.0 - r) ** 2 + 4.0 * r))
    a = r / t**2
    if not 0.0 < a <= 1.0:
        raise ValueError(
            f"calibration has no physical solution: round-trip loss {a:.6f} "
            f"outside (0, 1]"
        )
    return RingCoupling(through_amplitude=t, drop_amplitude=t, loss_amplitude=a)
