"""Simulator and analysis toolkit for a self-pumped microring four-wave-mixing source.

The package models an add-drop silicon microring resonator closed in a
fiber amplifier loop: the loop lases on one ring resonance, the intracavity
pump stimulates four-wave mixing with an injected signal, and the generated
idler is analyzed through joint-spectral and Schmidt-mode decompositions.

Subpackages
-----------
ring
    Add-drop ring transfer functions, loaded quality factor, coupling
    calibration.
laser
    Loop loss ledger, saturated-gain threshold model, lasing curve.
fwm
    Energy-conserving idler placement and stimulated four-wave-mixing power.
instrument
    Spectrometer-resolution convolution and spectral grids.
jsd
    Joint spectral density, ridge extraction, Schmidt decomposition.
fitting
    Lorentzian resonance fits, the lasing-threshold fit, and the weighted
    line fit shared by the threshold, ridge and conversion-slope fits.
config
    YAML configuration loading and validation.
cli
    Command-line entry points.
"""

__version__ = "0.1.0"
