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

import sys
from contextlib import contextmanager
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

    root = _Section(document, "")
    geometry, resonance_nm, coupling = _parse_ring(root.section("ring"))
    budget = _parse_loss_budget(root.section("loss_budget"))
    gain = _parse_gain(root.section("gain"))
    gamma, triplet = _parse_fwm(root.section("fwm"))
    grid, pump_linewidth = _parse_jsd(root.section("jsd"))
    spectrum_res, jsd_res = _parse_instrument(root.section("instrument"))
    output_dir = root.string("output_dir")
    root.done()

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
    )


class _Section:
    """One mapping of the document, read key by key under its key path.

    Each read pops a required key and checks its type, and :meth:`done`
    rejects any key left over.  Errors name a key by its dotted path from
    the root, e.g. ``'loss_budget.elements[2].loss_db'``.
    """

    def __init__(self, mapping, path: str):
        if not isinstance(mapping, dict):
            raise ConfigError(f"'{path}' must be a key-value section")
        # A copy: a YAML alias makes two entries one dict, and the pops that
        # read the first would leave the second empty.
        self.mapping = dict(mapping)
        self.path = path
        self.prefix = f"{path}." if path else ""

    def pop(self, key: str):
        if key not in self.mapping:
            raise ConfigError(f"missing required key '{self.prefix}{key}'")
        return self.mapping.pop(key)

    def number(self, key: str) -> float:
        value = self._typed(key, (int, float), "a number")
        # No key takes nan or +-inf, nor an integer past float range.
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"'{self.prefix}{key}' must be finite, got {value!r}")
        return float(value)

    def numbers(self, *keys: str) -> list[float]:
        return [self.number(key) for key in keys]

    def integer(self, key: str) -> int:
        return self._typed(key, int, "an integer")

    def string(self, key: str) -> str:
        return self._typed(key, str, "of type str")

    def section(self, key: str) -> _Section:
        return _Section(self.pop(key), self.prefix + key)

    def done(self) -> None:
        if self.mapping:
            raise ConfigError(f"unknown key '{self.prefix}{next(iter(self.mapping))}'")

    @contextmanager
    def building(self):
        """Report a model's ``ValueError`` as a ``ConfigError`` naming this section."""
        try:
            yield
        except ValueError as exc:
            raise ConfigError(f"{self.path}: {exc}") from exc

    def _typed(self, key: str, kinds, description: str):
        value = self.pop(key)
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ConfigError(f"'{self.prefix}{key}' must be {description}, got {value!r}")
        return value


def _parse_ring(section: _Section) -> tuple[RingGeometry, float, RingCoupling]:
    radius_um = section.number("radius_um")
    resonance_nm = section.number("resonance_nm")
    has_fsr = "fsr_nm" in section.mapping
    if has_fsr == ("group_index" in section.mapping):
        raise ConfigError("ring must set exactly one of 'ring.fsr_nm' or 'ring.group_index'")
    fsr_or_index = section.number("fsr_nm" if has_fsr else "group_index")
    with section.building():
        if has_fsr:
            geometry = RingGeometry.from_fsr(radius_um, fsr_or_index, resonance_nm)
        else:
            geometry = RingGeometry(radius_um=radius_um, group_index=fsr_or_index)
    coupling_section = section.section("coupling")
    section.done()
    coupling = _parse_coupling(coupling_section, geometry, resonance_nm)
    return geometry, resonance_nm, coupling


def _parse_coupling(section: _Section, geometry: RingGeometry, resonance_nm: float) -> RingCoupling:
    target_keys = ("quality_factor", "extinction")
    explicit_keys = ("through_amplitude", "drop_amplitude", "loss_amplitude")
    by_target = any(key in section.mapping for key in target_keys)
    if by_target == any(key in section.mapping for key in explicit_keys):
        raise ConfigError(
            "ring.coupling must set either {quality_factor, extinction} "
            "or {through_amplitude, drop_amplitude, loss_amplitude}"
        )
    values = section.numbers(*(target_keys if by_target else explicit_keys))
    section.done()
    with section.building():
        if by_target:
            return solve_coupling(geometry, resonance_nm, *values)
        return RingCoupling(*values)


def _parse_loss_budget(section: _Section) -> LossBudget:
    ring_insertion_db = section.number("ring_insertion_db")
    ring_index = section.integer("ring_index")
    tap_index = section.integer("tap_index")
    raw_elements = section.pop("elements")
    section.done()
    if not isinstance(raw_elements, list) or not raw_elements:
        raise ConfigError("'loss_budget.elements' must be a non-empty list")
    elements = []
    for position, raw_entry in enumerate(raw_elements):
        entry = _Section(raw_entry, f"{section.path}.elements[{position}]")
        name = entry.string("name")
        loss_db = entry.number("loss_db")
        entry.done()
        with entry.building():
            elements.append(LossElement(name, loss_db))
    with section.building():
        return LossBudget(
            elements=tuple(elements),
            ring_insertion_db=ring_insertion_db,
            ring_index=ring_index,
            tap_index=tap_index,
        )


def _parse_gain(section: _Section) -> GainModel:
    current_ma = section.number("calibration_current_ma")
    gain_db = section.number("calibration_gain_db")
    saturation_mw = section.number("saturation_power_mw")
    max_gain_db = section.number("max_small_signal_gain_db")
    section.done()
    with section.building():
        return GainModel.from_calibration(
            current_ma,
            gain_db,
            saturation_power_mw=saturation_mw,
            max_small_signal_gain_db=max_gain_db,
        )


def _parse_fwm(section: _Section) -> tuple[float, FwmTriplet]:
    gamma, pump_nm, signal_nm = section.numbers("gamma_per_w_m", "pump_nm", "signal_nm")
    section.done()
    if gamma <= 0.0:
        raise ConfigError(f"'fwm.gamma_per_w_m' must be positive, got {gamma}")
    with section.building():
        return gamma, FwmTriplet.from_pump_signal(pump_nm, signal_nm)


def _parse_jsd(section: _Section) -> tuple[SpectralGrid, float]:
    pump_linewidth = section.number("pump_linewidth_ghz")
    if pump_linewidth <= 0.0:
        raise ConfigError(f"'jsd.pump_linewidth_ghz' must be positive, got {pump_linewidth}")
    signal = section.numbers("signal_start_nm", "signal_stop_nm", "signal_step_pm")
    idler = section.numbers("idler_start_nm", "idler_stop_nm", "idler_step_pm")
    section.done()
    for key, step in (("signal_step_pm", signal[2]), ("idler_step_pm", idler[2])):
        if not step * 1e-3 > 0.0:
            problem = "must be positive" if step <= 0.0 else "underflows to 0 nm"
            raise ConfigError(f"'jsd.{key}' {problem}, got {step}")
    with section.building():
        grid = SpectralGrid(SpectralAxis(*signal), SpectralAxis(*idler))
        return grid, pump_linewidth


def _parse_instrument(section: _Section) -> tuple[float, float]:
    spectrum_res, jsd_res = section.numbers("spectrum_resolution_pm", "jsd_resolution_pm")
    section.done()
    if spectrum_res <= 0.0:
        raise ConfigError(
            f"'instrument.spectrum_resolution_pm' must be positive, got {spectrum_res}"
        )
    if jsd_res < 0.0:
        raise ConfigError(f"'instrument.jsd_resolution_pm' must be >= 0, got {jsd_res}")
    return spectrum_res, jsd_res
