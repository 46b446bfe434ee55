"""Tests for strict configuration parsing."""

from dataclasses import replace

import pytest
from conftest import DELETE, edited_config

from loopfwm.cli import main
from loopfwm.config import (
    ConfigError,
    ExperimentConfig,
    default_config_text,
    load_config,
    parse_config,
)
from loopfwm.fwm import FwmTriplet
from loopfwm.jsd import SpectralAxis, SpectralGrid
from loopfwm.laser import GainModel, LossBudget, LossElement
from loopfwm.ring import RingGeometry, solve_coupling


class TestDefaultConfig:
    def test_reproduces_reference_bench(self):
        config = parse_config(default_config_text())
        assert config.geometry.radius_um == 10.0
        assert config.geometry.group_index == pytest.approx(5.136951696849072, rel=1e-12)
        assert config.coupling.through_amplitude == pytest.approx(
            0.9100072559579606, rel=1e-12
        )
        assert config.budget.total_db == pytest.approx(18.0, abs=1e-12)
        assert config.gain.db_per_ma == pytest.approx(20.0 / 90.0, rel=1e-12)
        assert config.triplet.idler_nm == pytest.approx(1548.3631448794738, abs=1e-9)
        assert config.jsd_grid.signal.size == 601
        assert config.jsd_grid.idler.size == 601
        assert config.pump_linewidth_ghz == 0.05
        assert config.spectrum_resolution_pm == 50.0
        assert config.jsd_resolution_pm == 67.0
        assert config.output_dir == "runs"

    def test_parses_to_the_reference_objects(self):
        # Built from the models directly, with each number as default.yaml
        # writes it; repr also tells an int field from a float one.
        text = default_config_text()
        geometry = RingGeometry.from_fsr(10.0, 7.5, 1555.87)
        names_and_losses = [
            ("bandpass filter (pre-ring)", 3.5),
            ("50:50 splitter", 3.0),
            ("isolator", 0.3),
            ("input grating coupler", 3.6),
            ("output grating coupler", 3.6),
            ("bandpass filter (post-ring)", 3.5),
            ("99:1 tap splitter", 0.5),
        ]
        expected = ExperimentConfig(
            source_text=text,
            geometry=geometry,
            resonance_nm=1555.87,
            coupling=solve_coupling(geometry, 1555.87, 2750.0, 0.04),
            budget=LossBudget(
                elements=tuple(LossElement(name, loss) for name, loss in names_and_losses),
                ring_insertion_db=2.0,
                ring_index=4,
                tap_index=6,
            ),
            gain=GainModel.from_calibration(
                90.0, 20.0, saturation_power_mw=8.8, max_small_signal_gain_db=30.0
            ),
            gamma_per_w_m=300.0,
            triplet=FwmTriplet.from_pump_signal(1555.87, 1563.45),
            jsd_grid=SpectralGrid(
                signal=SpectralAxis(1560.0, 1566.0, 10.0),
                idler=SpectralAxis(1545.36, 1551.36, 10.0),
            ),
            pump_linewidth_ghz=0.05,
            spectrum_resolution_pm=50.0,
            jsd_resolution_pm=67.0,
            output_dir="runs",
        )
        config = parse_config(text)
        assert config == expected
        assert repr(config) == repr(expected)

    def test_source_text_is_preserved_verbatim(self):
        text = default_config_text()
        assert parse_config(text).source_text == text

    def test_load_config_reads_files(self, tmp_path):
        path = tmp_path / "bench.yaml"
        path.write_text(default_config_text(), encoding="utf-8")
        assert load_config(path).budget.total_db == pytest.approx(18.0)


class TestStrictness:
    def test_rejects_non_mapping_root(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_config("- 1\n- 2\n")

    def test_rejects_invalid_yaml(self):
        with pytest.raises(ConfigError, match="not valid YAML"):
            parse_config("ring: {radius_um: [unclosed\n")


MUST_SET_ONE = "ring must set exactly one of 'ring.fsr_nm' or 'ring.group_index'"
COUPLING_STYLES = (
    "ring.coupling must set either {quality_factor, extinction} "
    "or {through_amplitude, drop_amplitude, loss_amplitude}"
)
NO_TARGETS = (
    (("ring", "coupling", "quality_factor"), DELETE),
    (("ring", "coupling", "extinction"), DELETE),
)
AMPLITUDES = (
    (("ring", "coupling", "through_amplitude"), 0.91),
    (("ring", "coupling", "drop_amplitude"), 0.9538),
    (("ring", "coupling", "loss_amplitude"), 0.954),
)


# Each malformed document as edits of the default, and the message it gets.
MALFORMED = [
    pytest.param(
        [(("output_dir",), DELETE)], "missing required key 'output_dir'",
        id="missing-top-level-key",
    ),
    pytest.param(
        [(("instrument",), DELETE)], "missing required key 'instrument'",
        id="missing-section",
    ),
    pytest.param(
        [(("ring", "resonance_nm"), DELETE)],
        "missing required key 'ring.resonance_nm'",
        id="missing-nested-key",
    ),
    pytest.param(
        [(("ring", "coupling", "extinction"), DELETE)],
        "missing required key 'ring.coupling.extinction'",
        id="missing-coupling-key",
    ),
    pytest.param(
        [(("loss_budget", "elements", 2, "loss_db"), DELETE)],
        "missing required key 'loss_budget.elements[2].loss_db'",
        id="missing-element-key",
    ),
    pytest.param(
        [*NO_TARGETS, *AMPLITUDES[:2]],
        "missing required key 'ring.coupling.loss_amplitude'",
        id="missing-amplitude",
    ),
    pytest.param([(("extra",), 1)], "unknown key 'extra'", id="unknown-top-level-key"),
    pytest.param(
        [(("ring", "mystery_knob"), 3)], "unknown key 'ring.mystery_knob'",
        id="unknown-nested-key",
    ),
    pytest.param(
        [(("ring", "coupling", "phase"), 0.5)], "unknown key 'ring.coupling.phase'",
        id="unknown-coupling-key",
    ),
    pytest.param(
        [(("loss_budget", "elements", 2, "color"), "red")],
        "unknown key 'loss_budget.elements[2].color'",
        id="unknown-element-key",
    ),
    pytest.param(
        [(("gain",), 5)], "'gain' must be a key-value section",
        id="section-not-a-mapping",
    ),
    pytest.param(
        [(("ring", "coupling"), "strong")], "'ring.coupling' must be a key-value section",
        id="nested-section-not-a-mapping",
    ),
    pytest.param(
        [(("ring", "radius_um"), "wide")], "'ring.radius_um' must be a number, got 'wide'",
        id="not-a-number",
    ),
    pytest.param(
        [(("gain", "calibration_gain_db"), True)],
        "'gain.calibration_gain_db' must be a number, got True",
        id="bool-not-a-number",
    ),
    pytest.param(
        [(("fwm", "pump_nm"), [1555.87])],
        "'fwm.pump_nm' must be a number, got [1555.87]",
        id="list-not-a-number",
    ),
    pytest.param(
        [(("jsd", "signal_step_pm"), float("nan"))],
        "'jsd.signal_step_pm' must be finite, got nan",
        id="nan",
    ),
    pytest.param(
        [(("instrument", "jsd_resolution_pm"), float("-inf"))],
        "'instrument.jsd_resolution_pm' must be finite, got -inf",
        id="infinity",
    ),
    pytest.param(
        [(("instrument", "jsd_resolution_pm"), float("nan"))],
        "'instrument.jsd_resolution_pm' must be finite, got nan",
        id="jsd-resolution-nan",
    ),
    pytest.param(
        [(("instrument", "jsd_resolution_pm"), float("inf"))],
        "'instrument.jsd_resolution_pm' must be finite, got inf",
        id="jsd-resolution-infinity",
    ),
    # YAML reads a long digit string as an int, which float() cannot hold.
    pytest.param(
        [(("ring", "radius_um"), 10**400)],
        f"'ring.radius_um' must be finite, got {10**400}",
        id="integer-past-float-range",
    ),
    pytest.param(
        [(("loss_budget", "ring_index"), 1.5)],
        "'loss_budget.ring_index' must be an integer, got 1.5",
        id="not-an-integer",
    ),
    pytest.param(
        [(("loss_budget", "tap_index"), True)],
        "'loss_budget.tap_index' must be an integer, got True",
        id="bool-not-an-integer",
    ),
    pytest.param(
        [(("output_dir",), 3)], "'output_dir' must be of type str, got 3",
        id="output-dir-not-a-string",
    ),
    pytest.param(
        [(("loss_budget", "elements", 2, "name"), 7)],
        "'loss_budget.elements[2].name' must be of type str, got 7",
        id="element-name-not-a-string",
    ),
    pytest.param(
        [(("loss_budget", "elements"), "isolator")],
        "'loss_budget.elements' must be a non-empty list",
        id="elements-not-a-list",
    ),
    pytest.param(
        [(("loss_budget", "elements"), [])],
        "'loss_budget.elements' must be a non-empty list",
        id="elements-empty",
    ),
    pytest.param(
        [(("loss_budget", "elements", 2), "isolator")],
        "'loss_budget.elements[2]' must be a key-value section",
        id="element-not-a-mapping",
    ),
    pytest.param(
        [(("ring", "group_index"), 4.2)], MUST_SET_ONE, id="fsr-and-group-index",
    ),
    pytest.param(
        [(("ring", "fsr_nm"), DELETE)], MUST_SET_ONE, id="neither-fsr-nor-group-index",
    ),
    pytest.param(
        [(("ring", "fsr_nm"), "wide")], "'ring.fsr_nm' must be a number, got 'wide'",
        id="fsr-not-a-number",
    ),
    pytest.param(
        [(("ring", "fsr_nm"), DELETE), (("ring", "group_index"), float("nan"))],
        "'ring.group_index' must be finite, got nan",
        id="group-index-nan",
    ),
    pytest.param(
        [(("ring", "coupling", "through_amplitude"), 0.9)], COUPLING_STYLES,
        id="mixed-coupling-styles",
    ),
    pytest.param(list(NO_TARGETS), COUPLING_STYLES, id="no-coupling-style"),
    pytest.param(
        [(("ring", "fsr_nm"), DELETE), (("ring", "group_index"), 9.0)],
        "ring: group_index must lie in [1, 6], got 9.0",
        id="ring-model",
    ),
    pytest.param(
        [(("ring", "fsr_nm"), -7.5)], "ring: fsr_nm must be positive, got -7.5",
        id="ring-model-from-fsr",
    ),
    pytest.param(
        [(("ring", "coupling", "quality_factor"), 100.0)],
        "ring.coupling: loaded_q_target 100.0 implies a linewidth too wide for this "
        "ring (wider than one free spectral range)",
        id="coupling-model-by-target",
    ),
    pytest.param(
        [*NO_TARGETS, *AMPLITUDES, (("ring", "coupling", "through_amplitude"), 1.5)],
        "ring.coupling: through_amplitude must lie in (0, 1), got 1.5",
        id="coupling-model-by-amplitude",
    ),
    pytest.param(
        [(("loss_budget", "elements", 2, "loss_db"), -0.3)],
        "loss_budget.elements[2]: loss_db must be finite and >= 0, got -0.3",
        id="element-model",
    ),
    pytest.param(
        [(("loss_budget", "tap_index"), 40)],
        "loss_budget: tap_index 40 outside the element chain",
        id="loss-budget-model",
    ),
    pytest.param(
        [(("gain", "saturation_power_mw"), 0.0)],
        "gain: saturation_power_mw must be positive and finite, got 0.0",
        id="gain-model",
    ),
    pytest.param(
        [(("fwm", "signal_nm"), 1555.87)],
        "fwm: pump, signal and idler must sit on distinct resonances, "
        "got (1555.87, 1555.87, 1555.87)",
        id="fwm-model",
    ),
    pytest.param(
        [(("jsd", "signal_stop_nm"), 1559.0)],
        "jsd: grid stop must exceed its start, got [1560.0, 1559.0]",
        id="jsd-model",
    ),
    pytest.param(
        [(("jsd", "signal_start_nm"), -1)],
        "jsd: axis start must be above 0 nm with a finite frequency, got -1.0 nm",
        id="jsd-axis-through-zero",
    ),
    # Positive, but c/start overflows to inf.
    pytest.param(
        [(("jsd", "idler_start_nm"), 1e-300)],
        "jsd: axis start must be above 0 nm with a finite frequency, got 1e-300 nm",
        id="jsd-start-frequency-overflows",
    ),
    # Checked in pm, as written; the grid rule would quote it in nm.
    pytest.param(
        [(("jsd", "signal_step_pm"), -10.0)],
        "'jsd.signal_step_pm' must be positive, got -10.0",
        id="jsd-step-not-positive",
    ),
    pytest.param(
        [(("jsd", "idler_step_pm"), 0)],
        "'jsd.idler_step_pm' must be positive, got 0.0",
        id="jsd-step-zero",
    ),
    # 60,001 x 601 cells, rejected before any array is allocated.
    pytest.param(
        [(("jsd", "signal_step_pm"), 0.1)],
        "jsd: joint grid would have 36,060,601 cells (60001 x 601), more than the "
        "10,000,000 allowed; use coarser steps",
        id="jsd-joint-grid-cap",
    ),
    # An infinite or nan edge or step is refused where it is read,
    # naming its key; finite edges too far apart for the grid rule,
    # or a start below 0 nm, are refused as the rule and the start
    # check word it.
    pytest.param(
        [(("jsd", "signal_stop_nm"), float("inf"))],
        "'jsd.signal_stop_nm' must be finite, got inf",
        id="jsd-edge-infinite",
    ),
    pytest.param(
        [(("jsd", "signal_start_nm"), 1.0e308), (("jsd", "signal_stop_nm"), 1.7e308)],
        "jsd: grid would have inf points, more than the 10,000,000 allowed; "
        "use a coarser step",
        id="jsd-center-overflows",
    ),
    pytest.param(
        [(("jsd", "signal_start_nm"), -1.0e308), (("jsd", "signal_stop_nm"), 1.0e308)],
        "jsd: axis start must be above 0 nm with a finite frequency, got -1e+308 nm",
        id="jsd-span-overflows",
    ),
    pytest.param(
        [(("jsd", "idler_step_pm"), float("nan"))],
        "'jsd.idler_step_pm' must be finite, got nan",
        id="jsd-step-nan",
    ),
    pytest.param(
        [(("fwm", "gamma_per_w_m"), 0.0)],
        "'fwm.gamma_per_w_m' must be positive, got 0.0",
        id="gamma-not-positive",
    ),
    pytest.param(
        [(("jsd", "pump_linewidth_ghz"), -0.05)],
        "'jsd.pump_linewidth_ghz' must be positive, got -0.05",
        id="pump-linewidth-not-positive",
    ),
    pytest.param(
        [(("jsd", "pump_linewidth_ghz"), 0)],
        "'jsd.pump_linewidth_ghz' must be positive, got 0.0",
        id="pump-linewidth-zero",
    ),
    pytest.param(
        [(("instrument", "spectrum_resolution_pm"), 0)],
        "'instrument.spectrum_resolution_pm' must be positive, got 0.0",
        id="spectrum-resolution-not-positive",
    ),
    pytest.param(
        [(("instrument", "jsd_resolution_pm"), -1.0)],
        "'instrument.jsd_resolution_pm' must be >= 0, got -1.0",
        id="jsd-resolution-negative",
    ),
    pytest.param(
        [(("ring", "radius_um"), "wide"), (("jsd", "pump_linewidth_ghz"), 0.0)],
        "'ring.radius_um' must be a number, got 'wide'",
        id="two-faults-earlier-section-first",
    ),
    pytest.param(
        [(("gain", "extra"), 1), (("gain", "calibration_current_ma"), "x")],
        "'gain.calibration_current_ma' must be a number, got 'x'",
        id="two-faults-value-before-unknown-key",
    ),
    pytest.param(
        [(("gain", "extra"), 1), (("gain", "saturation_power_mw"), 0.0)],
        "unknown key 'gain.extra'",
        id="two-faults-unknown-key-before-model",
    ),
    pytest.param(
        [(("ring", "fsr_nm"), -7.5), (("ring", "coupling"), DELETE)],
        "ring: fsr_nm must be positive, got -7.5",
        id="two-faults-ring-model-before-coupling",
    ),
    pytest.param(
        [(("fwm", "gamma_per_w_m"), 0.0), (("fwm", "pump_nm"), "x")],
        "'fwm.pump_nm' must be a number, got 'x'",
        id="two-faults-value-before-gamma-check",
    ),
    pytest.param(
        [(("jsd", "pump_linewidth_ghz"), 0.0), (("jsd", "signal_step_pm"), "x")],
        "'jsd.pump_linewidth_ghz' must be positive, got 0.0",
        id="two-faults-pump-check-before-window",
    ),
    pytest.param(
        [(("loss_budget", "elements"), 5), (("loss_budget", "extra"), 1)],
        "unknown key 'loss_budget.extra'",
        id="two-faults-unknown-key-before-list-check",
    ),
    pytest.param(
        [(("loss_budget", "elements", 0, "loss_db"), -1.0),
         (("loss_budget", "elements", 1), 2)],
        "loss_budget.elements[0]: loss_db must be finite and >= 0, got -1.0",
        id="two-faults-elements-in-order",
    ),
    pytest.param(
        [(("ring", "fsr_nm"), DELETE), (("ring", "group_index"), 4.2), (("ring", "radius_um"), 0)],
        "ring: radius_um must be positive, got 0.0",
        id="ring-model-radius",
    ),
    pytest.param(
        [*NO_TARGETS, *AMPLITUDES, (("ring", "coupling", "drop_amplitude"), 1.0)],
        "ring.coupling: drop_amplitude must lie in (0, 1), got 1.0",
        id="coupling-model-drop-amplitude",
    ),
    pytest.param(
        [*NO_TARGETS, *AMPLITUDES, (("ring", "coupling", "loss_amplitude"), 0)],
        "ring.coupling: loss_amplitude must lie in (0, 1], got 0.0",
        id="coupling-model-loss-amplitude",
    ),
    # A Q a hair above the ring's limit: the half-width phase's cosine
    # rounds to -1, so the round-trip factor is the limit itself.
    pytest.param(
        [(("ring", "coupling", "quality_factor"), 207.4493334)],
        "ring.coupling: loaded_q_target 207.4493334 implies a linewidth too wide for this "
        "ring (round-trip factor 0.171573)",
        id="coupling-model-at-the-ring-limit",
    ),
    pytest.param(
        [(("loss_budget", "ring_insertion_db"), -1)],
        "loss_budget: ring_insertion_db must be finite and >= 0, got -1.0",
        id="loss-budget-ring-insertion",
    ),
    # Positive in pm, but 0 once in nm.
    pytest.param(
        [(("jsd", "idler_step_pm"), 5e-324)],
        "'jsd.idler_step_pm' underflows to 0 nm, got 5e-324",
        id="jsd-step-underflows",
    ),
]


class TestMessages:
    """The exact text for each class of malformed document in
    :data:`MALFORMED`, from the parser and from the command line, and for a
    config file that cannot be read.

    Cases with two faults pin which one is reported: keys are read in
    document order within a section, a section's unknown keys are
    rejected after its keys are read, and before its objects are built.
    """

    @pytest.mark.parametrize("edits, message", MALFORMED)
    def test_malformed_document(self, edits, message):
        with pytest.raises(ConfigError) as raised:
            parse_config(edited_config(*edits))
        assert str(raised.value) == message

    @pytest.mark.parametrize("edits, message", MALFORMED)
    def test_command_line_reports_it(self, tmp_path, capsys, edits, message):
        path = tmp_path / "bad.yaml"
        path.write_text(edited_config(*edits), encoding="utf-8")
        assert main(["ring-spectrum", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.yaml"
        with pytest.raises(ConfigError) as raised:
            load_config(path)
        cause = raised.value.__cause__
        assert isinstance(cause, FileNotFoundError)
        assert str(raised.value) == f"cannot read config file {path}: {cause}"


class TestAlternativeForms:
    def test_group_index_instead_of_fsr(self):
        config = parse_config(
            edited_config((("ring", "fsr_nm"), DELETE), (("ring", "group_index"), 4.2))
        )
        assert config.geometry.group_index == 4.2

    def test_explicit_coupling_amplitudes(self):
        config = parse_config(edited_config(*NO_TARGETS, *AMPLITUDES))
        assert config.coupling.through_amplitude == 0.91

    def test_aliased_list_entry(self):
        first = "    - name: bandpass filter (pre-ring)\n      loss_db: 3.5\n"
        last = "    - name: bandpass filter (post-ring)\n      loss_db: 3.5\n"
        text = default_config_text()
        assert first in text and last in text
        anchor = "    - &bp {name: bandpass filter (pre-ring), loss_db: 3.5}\n"
        config = parse_config(text.replace(first, anchor).replace(last, "    - *bp\n"))
        expected = parse_config(text.replace(last, first))
        assert replace(config, source_text=expected.source_text) == expected


class TestModuleInvariantsAtLoad:
    def test_zero_jsd_resolution_is_allowed(self):
        config = parse_config(edited_config((("instrument", "jsd_resolution_pm"), 0)))
        assert config.jsd_resolution_pm == 0.0
