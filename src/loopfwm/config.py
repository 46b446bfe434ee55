"""Strict YAML configuration for reproducible experiment runs.

A configuration file describes the whole bench — ring geometry and
coupling, the loop loss ledger, amplifier gain, mixing parameters, and
scan windows — in one human-editable document.  Parsing is strict in
both directions: every required key must be present, every present key
must be known, and all module-level invariants are checked at load time
so a bad value is reported before any computation starts.  Keys carry
unit suffixes (``radius_um``, ``loss_db``) to keep units explicit.

The packaged default (:func:`default_config_text`) reproduces the
reference bench and is the baseline for golden-output runs; the raw
text is kept on the parsed object so manifests can hash exactly what
was loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

from .fwm import FwmTriplet
from .jsd import SpectralAxis, SpectralGrid
from .laser import GainModel, LossBudget, LossElement
from .ring import RingCoupling, RingGeometry, solve_coupling


class ConfigError(ValueError):
    """Raised when a configuration file is missing, malformed, or invalid."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment description.

    ``source_text`` preserves the exact text the object was parsed
    from, so run manifests can hash the configuration as written.
    """

    source_text: str
    geometry: RingGeometry
    resonance_nm: float
    coupling: RingCoupling
    budget: LossBudget
    gain: GainModel
    gamma_per_w_m: float
    triplet: FwmTriplet
    jsd_grid: SpectralGrid
    pump_linewidth_ghz: float
    spectrum_resolution_pm: float
    jsd_resolution_pm: float
    output_dir: str
    seed: int


def default_config_text() -> str:
    """Text of the packaged reference configuration."""
    return (
        resources.files("loopfwm.data").joinpath("default.yaml").read_text(encoding="utf-8")
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and parse a configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate configuration text.

    Raises
    ------
    ConfigError
        Naming the offending key for unknown, missing, or mistyped
        entries, and wrapping any module-invariant violation.
    """
    try:
        document = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError("config root must be a key-value mapping")

    ring_section = _pop_mapping(document, "ring", "")
    geometry, resonance_nm, coupling = _parse_ring(ring_section)
    budget = _parse_loss_budget(_pop_mapping(document, "loss_budget", ""))
    gain = _parse_gain(_pop_mapping(document, "gain", ""))
    gamma, triplet = _parse_fwm(_pop_mapping(document, "fwm", ""))
    grid, pump_linewidth = _parse_jsd(_pop_mapping(document, "jsd", ""))
    spectrum_res, jsd_res = _parse_instrument(_pop_mapping(document, "instrument", ""))
    output_dir = _pop_value(document, "output_dir", "", str)
    seed = _pop_value(document, "seed", "", int)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    _reject_unknown(document, "")

    return ExperimentConfig(
        source_text=text,
        geometry=geometry,
        resonance_nm=resonance_nm,
        coupling=coupling,
        budget=budget,
        gain=gain,
        gamma_per_w_m=gamma,
        triplet=triplet,
        jsd_grid=grid,
        pump_linewidth_ghz=pump_linewidth,
        spectrum_resolution_pm=spectrum_res,
        jsd_resolution_pm=jsd_res,
        output_dir=output_dir,
        seed=seed,
    )


def _qualify(context: str, key: str) -> str:
    return f"{context}.{key}" if context else key


def _reject_unknown(mapping: dict, context: str) -> None:
    if mapping:
        key = next(iter(mapping))
        raise ConfigError(f"unknown key '{_qualify(context, key)}'")


def _pop_required(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing required key '{_qualify(context, key)}'")
    return mapping.pop(key)


def _pop_mapping(mapping: dict, key: str, context: str) -> dict:
    value = _pop_required(mapping, key, context)
    if not isinstance(value, dict):
        raise ConfigError(f"'{_qualify(context, key)}' must be a key-value section")
    return value


def _pop_value(mapping: dict, key: str, context: str, kind: type):
    value = _pop_required(mapping, key, context)
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"'{_qualify(context, key)}' must be a number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"'{_qualify(context, key)}' must be an integer, got {value!r}")
        return int(value)
    if not isinstance(value, kind):
        raise ConfigError(
            f"'{_qualify(context, key)}' must be of type {kind.__name__}, got {value!r}"
        )
    return value


def _parse_ring(section: dict) -> tuple[RingGeometry, float, RingCoupling]:
    context = "ring"
    radius_um = _pop_value(section, "radius_um", context, float)
    resonance_nm = _pop_value(section, "resonance_nm", context, float)
    has_fsr = "fsr_nm" in section
    has_index = "group_index" in section
    if has_fsr == has_index:
        raise ConfigError("ring must set exactly one of 'ring.fsr_nm' or 'ring.group_index'")
    try:
        if has_fsr:
            fsr_nm = _pop_value(section, "fsr_nm", context, float)
            geometry = RingGeometry.from_fsr(radius_um, fsr_nm, resonance_nm)
        else:
            group_index = _pop_value(section, "group_index", context, float)
            geometry = RingGeometry(radius_um=radius_um, group_index=group_index)
    except ValueError as exc:
        raise ConfigError(f"ring: {exc}") from exc

    coupling_section = _pop_mapping(section, "coupling", context)
    _reject_unknown(section, context)
    coupling = _parse_coupling(coupling_section, geometry, resonance_nm)
    return geometry, resonance_nm, coupling


def _parse_coupling(section: dict, geometry: RingGeometry, resonance_nm: float) -> RingCoupling:
    context = "ring.coupling"
    by_target = "quality_factor" in section or "extinction" in section
    explicit_keys = ("through_amplitude", "drop_amplitude", "loss_amplitude")
    by_amplitude = any(key in section for key in explicit_keys)
    if by_target == by_amplitude:
        raise ConfigError(
            "ring.coupling must set either {quality_factor, extinction} "
            "or {through_amplitude, drop_amplitude, loss_amplitude}"
        )
    try:
        if by_target:
            quality = _pop_value(section, "quality_factor", context, float)
            extinction = _pop_value(section, "extinction", context, float)
            _reject_unknown(section, context)
            return solve_coupling(geometry, resonance_nm, quality, extinction)
        amplitudes = [_pop_value(section, key, context, float) for key in explicit_keys]
        _reject_unknown(section, context)
        return RingCoupling(*amplitudes)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _parse_loss_budget(section: dict) -> LossBudget:
    context = "loss_budget"
    ring_insertion_db = _pop_value(section, "ring_insertion_db", context, float)
    ring_index = _pop_value(section, "ring_index", context, int)
    tap_index = _pop_value(section, "tap_index", context, int)
    raw_elements = _pop_required(section, "elements", context)
    _reject_unknown(section, context)
    if not isinstance(raw_elements, list) or not raw_elements:
        raise ConfigError("'loss_budget.elements' must be a non-empty list")
    elements = []
    for position, entry in enumerate(raw_elements):
        entry_context = f"{context}.elements[{position}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"'{entry_context}' must be a key-value section")
        name = _pop_value(entry, "name", entry_context, str)
        loss_db = _pop_value(entry, "loss_db", entry_context, float)
        _reject_unknown(entry, entry_context)
        try:
            elements.append(LossElement(name, loss_db))
        except ValueError as exc:
            raise ConfigError(f"{entry_context}: {exc}") from exc
    try:
        return LossBudget(
            elements=tuple(elements),
            ring_insertion_db=ring_insertion_db,
            ring_index=ring_index,
            tap_index=tap_index,
        )
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _parse_gain(section: dict) -> GainModel:
    context = "gain"
    current_ma = _pop_value(section, "calibration_current_ma", context, float)
    gain_db = _pop_value(section, "calibration_gain_db", context, float)
    saturation_mw = _pop_value(section, "saturation_power_mw", context, float)
    max_gain_db = _pop_value(section, "max_small_signal_gain_db", context, float)
    _reject_unknown(section, context)
    try:
        return GainModel.from_calibration(
            current_ma,
            gain_db,
            saturation_power_mw=saturation_mw,
            max_small_signal_gain_db=max_gain_db,
        )
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _parse_fwm(section: dict) -> tuple[float, FwmTriplet]:
    context = "fwm"
    gamma = _pop_value(section, "gamma_per_w_m", context, float)
    pump_nm = _pop_value(section, "pump_nm", context, float)
    signal_nm = _pop_value(section, "signal_nm", context, float)
    _reject_unknown(section, context)
    if gamma <= 0.0:
        raise ConfigError(f"'fwm.gamma_per_w_m' must be positive, got {gamma}")
    try:
        return gamma, FwmTriplet.from_pump_signal(pump_nm, signal_nm)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _parse_jsd(section: dict) -> tuple[SpectralGrid, float]:
    context = "jsd"
    pump_linewidth = _pop_value(section, "pump_linewidth_ghz", context, float)
    if pump_linewidth <= 0.0:
        raise ConfigError(f"'jsd.pump_linewidth_ghz' must be positive, got {pump_linewidth}")
    bounds = {
        key: _pop_value(section, key, context, float)
        for key in (
            "signal_start_nm",
            "signal_stop_nm",
            "signal_step_pm",
            "idler_start_nm",
            "idler_stop_nm",
            "idler_step_pm",
        )
    }
    _reject_unknown(section, context)
    try:
        signal = SpectralAxis.from_range(
            bounds["signal_start_nm"], bounds["signal_stop_nm"], bounds["signal_step_pm"]
        )
        idler = SpectralAxis.from_range(
            bounds["idler_start_nm"], bounds["idler_stop_nm"], bounds["idler_step_pm"]
        )
        return SpectralGrid(signal=signal, idler=idler), pump_linewidth
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _parse_instrument(section: dict) -> tuple[float, float]:
    context = "instrument"
    spectrum_res = _pop_value(section, "spectrum_resolution_pm", context, float)
    jsd_res = _pop_value(section, "jsd_resolution_pm", context, float)
    _reject_unknown(section, context)
    if spectrum_res <= 0.0:
        raise ConfigError(
            f"'instrument.spectrum_resolution_pm' must be positive, got {spectrum_res}"
        )
    if not 0.0 <= jsd_res < math.inf:
        raise ConfigError(
            f"'instrument.jsd_resolution_pm' must be finite and >= 0, got {jsd_res}"
        )
    return spectrum_res, jsd_res
