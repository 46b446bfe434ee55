"""Tests for strict configuration parsing."""

import re

import pytest
import yaml

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


def default_with(replacements: dict[str, str]) -> str:
    text = default_config_text()
    for old, new in replacements.items():
        assert old in text, f"fixture drift: {old!r} not in default config"
        text = text.replace(old, new)
    return text


DELETE = object()


def default_edited(*edits: tuple) -> str:
    """The packaged default with the entry at each ``(path, value)`` edit's
    key path set to ``value``, or removed where ``value`` is ``DELETE``."""
    document = yaml.safe_load(default_config_text())
    for path, value in edits:
        *parents, last = path
        node = document
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    return yaml.safe_dump(document, sort_keys=False)


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
                signal=SpectralAxis.from_range(1560.0, 1566.0, 10.0),
                idler=SpectralAxis.from_range(1545.36, 1551.36, 10.0),
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

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")


class TestStrictness:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'extra'"):
            parse_config(default_config_text() + "\nextra: 1\n")

    def test_unknown_nested_key_is_named(self):
        text = default_with({"radius_um: 10.0": "radius_um: 10.0\n  mystery_knob: 3"})
        with pytest.raises(ConfigError, match="ring.mystery_knob"):
            parse_config(text)

    def test_missing_required_key_is_named(self):
        text = default_with({"  resonance_nm: 1555.87\n": ""})
        with pytest.raises(ConfigError, match="ring.resonance_nm"):
            parse_config(text)

    def test_missing_section(self):
        text = default_with({"output_dir: runs": "output_dir: runs"})
        text = "\n".join(
            line for line in text.splitlines() if not line.startswith("instrument")
        )
        text = text.replace("  spectrum_resolution_pm: 50.0\n", "").replace(
            "  jsd_resolution_pm: 67.0\n", ""
        )
        with pytest.raises(ConfigError, match="instrument"):
            parse_config(text)

    def test_rejects_non_mapping_root(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_config("- 1\n- 2\n")

    def test_rejects_invalid_yaml(self):
        with pytest.raises(ConfigError, match="not valid YAML"):
            parse_config("ring: {radius_um: [unclosed\n")

    def test_type_errors_are_named(self):
        with pytest.raises(ConfigError, match="ring.radius_um"):
            parse_config(default_with({"radius_um: 10.0": "radius_um: wide"}))
        with pytest.raises(ConfigError, match="loss_budget.ring_index.*integer"):
            parse_config(default_with({"ring_index: 4": "ring_index: 1.5"}))


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


class TestMessages:
    """The exact text for each class of malformed document.

    Cases with two faults pin which one is reported: keys are read in
    document order within a section, a section's unknown keys are
    rejected after its keys are read, and before its objects are built.
    """

    @pytest.mark.parametrize(
        "edits, message",
        [
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
                [(("jsd", "signal_stop_nm"), 1559.0)], "jsd: span_nm must be positive, got -1.0",
                id="jsd-model",
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
        ],
    )
    def test_malformed_document(self, edits, message):
        with pytest.raises(ConfigError) as raised:
            parse_config(default_edited(*edits))
        assert str(raised.value) == message


class TestAlternativeForms:
    def test_group_index_instead_of_fsr(self):
        config = parse_config(default_with({"fsr_nm: 7.5": "group_index: 4.2"}))
        assert config.geometry.group_index == 4.2

    def test_fsr_and_group_index_together_rejected(self):
        text = default_with({"fsr_nm: 7.5": "fsr_nm: 7.5\n  group_index: 4.2"})
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(text)

    def test_explicit_coupling_amplitudes(self):
        text = default_with(
            {
                "    quality_factor: 2750.0\n    extinction: 0.04": (
                    "    through_amplitude: 0.91\n"
                    "    drop_amplitude: 0.9538\n"
                    "    loss_amplitude: 0.954"
                )
            }
        )
        config = parse_config(text)
        assert config.coupling.through_amplitude == 0.91

    def test_mixed_coupling_styles_rejected(self):
        text = default_with(
            {"    extinction: 0.04": "    extinction: 0.04\n    through_amplitude: 0.9"}
        )
        with pytest.raises(ConfigError, match="ring.coupling"):
            parse_config(text)


class TestModuleInvariantsAtLoad:
    def test_geometry_violation_is_wrapped(self):
        text = default_with({"fsr_nm: 7.5": "group_index: 9.0"})
        with pytest.raises(ConfigError, match="ring"):
            parse_config(text)

    def test_unreachable_quality_target_is_wrapped(self):
        with pytest.raises(ConfigError, match="ring.coupling"):
            parse_config(default_with({"quality_factor: 2750.0": "quality_factor: 100.0"}))

    def test_negative_element_loss_is_wrapped(self):
        text = default_with({"loss_db: 0.3": "loss_db: -0.3"})
        with pytest.raises(ConfigError, match=r"loss_budget.elements\[2\]"):
            parse_config(text)

    def test_bad_jsd_window_is_wrapped(self):
        with pytest.raises(ConfigError, match="jsd"):
            parse_config(default_with({"signal_stop_nm: 1566.0": "signal_stop_nm: 1559.0"}))

    def test_axis_through_zero_is_wrapped(self):
        text = default_with({"signal_start_nm: 1560.0": "signal_start_nm: -1"})
        with pytest.raises(ConfigError, match="jsd: axis low edge"):
            parse_config(text)

    def test_joint_grid_cap_is_wrapped(self):
        # 60,001 x 601 cells, rejected before any array is allocated.
        text = default_with({"signal_step_pm: 10.0": "signal_step_pm: 0.1"})
        with pytest.raises(ConfigError, match="jsd: joint grid would have 36,060,601 cells"):
            parse_config(text)

    # Each id names the axis quantity the input would make non-finite.  An
    # infinite or nan edge or step is refused where it is read, naming its
    # key; finite edges whose (start + stop)/2 or stop - start overflows are
    # refused naming the derived quantity, the other staying finite.
    @pytest.mark.parametrize(
        "replacements, message",
        [
            pytest.param(
                {"signal_stop_nm: 1566.0": "signal_stop_nm: .inf"},
                "'jsd.signal_stop_nm' must be finite",
                id="replacements0-center_nm",
            ),
            pytest.param(
                {"signal_start_nm: 1560.0": "signal_start_nm: 1.0e+308",
                 "signal_stop_nm: 1566.0": "signal_stop_nm: 1.7e+308"},
                "jsd: center_nm must be finite",
                id="replacements1-center_nm",
            ),
            pytest.param(
                {"signal_start_nm: 1560.0": "signal_start_nm: -1.0e+308",
                 "signal_stop_nm: 1566.0": "signal_stop_nm: 1.0e+308"},
                "jsd: span_nm must be finite",
                id="replacements2-span_nm",
            ),
            pytest.param(
                {"idler_step_pm: 10.0": "idler_step_pm: .nan"},
                "'jsd.idler_step_pm' must be finite",
                id="replacements3-step_pm",
            ),
        ],
    )
    def test_nonfinite_jsd_axis_is_wrapped(self, replacements, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(default_with(replacements))

    def test_integer_past_float_range_rejected(self):
        # YAML reads a long digit string as an int, which float() cannot hold.
        text = default_with({"radius_um: 10.0": "radius_um: 1" + "0" * 400})
        with pytest.raises(ConfigError, match="'ring.radius_um' must be finite"):
            parse_config(text)

    def test_degenerate_triplet_rejected(self):
        with pytest.raises(ConfigError, match="fwm"):
            parse_config(default_with({"signal_nm: 1563.45": "signal_nm: 1555.87"}))

    def test_nonpositive_scalars_rejected(self):
        with pytest.raises(ConfigError, match="gamma_per_w_m"):
            parse_config(default_with({"gamma_per_w_m: 300.0": "gamma_per_w_m: 0.0"}))
        with pytest.raises(ConfigError, match="pump_linewidth_ghz"):
            parse_config(default_with({"pump_linewidth_ghz: 0.05": "pump_linewidth_ghz: 0"}))
        with pytest.raises(ConfigError, match="spectrum_resolution_pm"):
            parse_config(
                default_with({"spectrum_resolution_pm: 50.0": "spectrum_resolution_pm: 0"})
            )

    @pytest.mark.parametrize("value", [".nan", ".inf"])
    def test_nonfinite_jsd_resolution_rejected(self, value):
        text = default_with({"jsd_resolution_pm: 67.0": f"jsd_resolution_pm: {value}"})
        with pytest.raises(ConfigError, match="jsd_resolution_pm"):
            parse_config(text)

    def test_zero_jsd_resolution_is_allowed(self):
        config = parse_config(default_with({"jsd_resolution_pm: 67.0": "jsd_resolution_pm: 0"}))
        assert config.jsd_resolution_pm == 0.0

    def test_element_entry_must_be_complete(self):
        text = default_with({"- name: isolator\n      loss_db: 0.3": "- name: isolator"})
        with pytest.raises(ConfigError, match=r"elements\[2\].loss_db"):
            parse_config(text)
