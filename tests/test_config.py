"""Tests for strict configuration parsing."""

import re

import pytest

from loopfwm.config import (
    ConfigError,
    default_config_text,
    load_config,
    parse_config,
)


def default_with(replacements: dict[str, str]) -> str:
    text = default_config_text()
    for old, new in replacements.items():
        assert old in text, f"fixture drift: {old!r} not in default config"
        text = text.replace(old, new)
    return text


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
