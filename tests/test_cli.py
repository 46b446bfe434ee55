"""End-to-end tests of the command-line interface.

Commands are exercised through :func:`loopfwm.cli.main` with explicit
argument lists; subprocess tests confirm the module entry point and which
modules a fresh process imports.
"""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loopfwm
from loopfwm.cli import main
from loopfwm.config import default_config_text
from loopfwm.csvio import read_table


def config_dict() -> dict:
    """The packaged default config with a 151 x 201 JSD grid at 20 pm steps."""
    config = yaml.safe_load(default_config_text())
    config["jsd"].update(
        signal_start_nm=1562.0,
        signal_stop_nm=1565.0,
        signal_step_pm=20.0,
        idler_start_nm=1546.5,
        idler_stop_nm=1550.5,
        idler_step_pm=20.0,
    )
    return config


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "bench.yaml"
    path.write_text(yaml.safe_dump(config_dict(), sort_keys=False), encoding="utf-8")
    return path


def column(path, name: str) -> np.ndarray:
    header, data, _ = read_table(path)
    return data[:, header.index(name)]


def report_fields(path) -> dict:
    fields = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, rest = line.partition(":")
        fields[key.strip()] = rest.strip()
    return fields


def report_csv_row(path) -> dict:
    header, row = path.read_text(encoding="utf-8").splitlines()
    return dict(zip(header.split(","), row.split(",")))


class TestRingSpectrum:
    def test_through_port_dips_below_five_percent(self, tmp_path):
        out = tmp_path / "run"
        assert main(["ring-spectrum", "--out", str(out)]) == 0
        through = column(out / "through.csv", "through")
        assert float(through.min()) < 0.05
        drop = column(out / "drop.csv", "drop")
        assert float(drop.max()) <= 1.0

    def test_zero_span_rejected(self, tmp_path):
        code = main(
            [
                "ring-spectrum",
                "--out",
                str(tmp_path / "run"),
                "--start-nm",
                "1555.0",
                "--stop-nm",
                "1555.0",
            ]
        )
        assert code == 2

    def test_nonpositive_resolution_rejected(self, tmp_path):
        code = main(
            ["ring-spectrum", "--out", str(tmp_path / "run"), "--resolution-pm", "0"]
        )
        assert code == 2

    def test_astronomical_grid_rejected(self, tmp_path, capsys):
        # 6 nm at 1e-12 nm steps would be 6e12 points (43.7 TiB per array).
        argv = ["ring-spectrum", "--out", str(tmp_path / "run"), "--resolution-pm", "1e-9"]
        assert main(argv) == 2
        assert "grid would have 6e+12 points" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["--stop-nm=inf", "--start-nm=-inf", "--stop-nm=nan"])
    def test_nonfinite_bounds_rejected(self, tmp_path, bound):
        assert main(["ring-spectrum", "--out", str(tmp_path / "run"), bound]) == 2
        assert not (tmp_path / "run" / "through.csv").exists()

    @pytest.mark.parametrize("start", ["-5", "0"])
    def test_nonpositive_start_rejected(self, tmp_path, capsys, start):
        argv = ["ring-spectrum", "--out", str(tmp_path / "run")]
        assert main(argv + ["--start-nm", start, "--stop-nm", "5"]) == 2
        assert "start wavelength must be positive" in capsys.readouterr().err
        assert not (tmp_path / "run" / "through.csv").exists()

    def test_halving_resolution_doubles_rows(self, tmp_path):
        coarse, fine = tmp_path / "coarse", tmp_path / "fine"
        assert main(["ring-spectrum", "--out", str(coarse)]) == 0
        assert main(["ring-spectrum", "--out", str(fine), "--resolution-pm", "25"]) == 0
        _, coarse_data, _ = read_table(coarse / "through.csv")
        _, fine_data, _ = read_table(fine / "through.csv")
        assert abs(fine_data.shape[0] - 2 * coarse_data.shape[0]) <= 1


class TestLaserCurve:
    def test_recovers_configured_threshold(self, tmp_path):
        out = tmp_path / "run"
        assert main(["laser-curve", "--out", str(out)]) == 0
        row = report_csv_row(out / "laser_fit.csv")
        assert float(row["threshold_ma"]) == pytest.approx(90.0, abs=0.1)

    def test_empty_range_rejected(self, tmp_path):
        code = main(
            [
                "laser-curve",
                "--out",
                str(tmp_path / "run"),
                "--start-ma",
                "100",
                "--stop-ma",
                "90",
            ]
        )
        assert code == 2

    def test_tpa_flag_produces_rollover(self, tmp_path):
        clean_dir, tpa_dir = tmp_path / "clean", tmp_path / "tpa"
        assert main(["laser-curve", "--out", str(clean_dir)]) == 0
        assert main(["laser-curve", "--out", str(tpa_dir), "--tpa"]) == 0
        clean = column(clean_dir / "laser_curve.csv", "drop_power_mw")
        bent = column(tpa_dir / "laser_curve.csv", "drop_power_mw")
        assert clean[-1] - bent[-1] > 0.0

    def test_tpa_threshold_zoom(self, tmp_path):
        out = tmp_path / "run"
        argv = ["laser-curve", "--out", str(out), "--tpa", "0.02"]
        argv += ["--start-ma", "90.0", "--stop-ma", "90.004", "--step-ma", "0.0005"]
        assert main(argv) == 0
        drop = column(out / "laser_curve.csv", "drop_power_mw")
        assert drop.size == 9
        assert drop[0] == 0.0
        assert np.all(drop[1:] > 0.0)

    @pytest.mark.parametrize(
        "bound", ["--stop-ma=inf", "--start-ma=nan", "--step-ma=inf", "--tpa=nan", "--tpa=inf"]
    )
    def test_nonfinite_arguments_rejected(self, tmp_path, bound):
        # Rejected before the sweep runs, so no curve of nan powers is written.
        assert main(["laser-curve", "--out", str(tmp_path / "run"), bound]) == 2
        assert not (tmp_path / "run" / "laser_curve.csv").exists()

    @pytest.mark.parametrize("extra", [[], ["--tpa", "0"]])
    def test_zero_loss_loop_rejected(self, tmp_path, capsys, extra):
        config = config_dict()
        config["loss_budget"]["ring_insertion_db"] = 0.0
        for element in config["loss_budget"]["elements"]:
            element["loss_db"] = 0.0
        path = tmp_path / "lossless.yaml"
        path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
        argv = ["laser-curve", "--config", str(path), "--out", str(tmp_path / "run")]
        assert main(argv + extra) == 2
        assert "loop loss is 0 dB" in capsys.readouterr().err


class TestFwmSweep:
    def slope_from(self, path) -> float:
        _, _, comments = read_table(path)
        summary = [c for c in comments if c.startswith("loglog_slope")]
        assert len(summary) == 1
        return float(summary[0].split("=")[1])

    def test_pump_axis_slope_two(self, tmp_path):
        out = tmp_path / "run"
        assert main(["fwm-sweep", "--axis", "pump", "--out", str(out)]) == 0
        assert self.slope_from(out / "fwm_sweep.csv") == pytest.approx(2.0, abs=1e-6)

    def test_signal_axis_slope_one(self, tmp_path):
        out = tmp_path / "run"
        assert main(["fwm-sweep", "--axis", "signal", "--out", str(out)]) == 0
        assert self.slope_from(out / "fwm_sweep.csv") == pytest.approx(1.0, abs=1e-6)

    def test_single_point_rejected(self, tmp_path):
        code = main(["fwm-sweep", "--out", str(tmp_path / "run"), "--points", "1"])
        assert code == 2

    @pytest.mark.parametrize(
        "extra",
        [
            ["--fixed-mw=inf"],
            ["--fixed-mw=nan"],
            ["--stop-mw=inf"],
            ["--stop-mw=nan"],
            ["--start-mw=1e-200", "--stop-mw=1e-100"],
            ["--axis=pump", "--start-mw=1e-300", "--stop-mw=1e300"],
        ],
    )
    def test_degenerate_powers_rejected(self, tmp_path, extra):
        assert main(["fwm-sweep", "--out", str(tmp_path / "run")] + extra) == 2
        assert not (tmp_path / "run" / "fwm_sweep.csv").exists()


class TestJsd:
    def test_report_and_long_form_csv(self, tmp_path, small_config):
        out = tmp_path / "run"
        assert main(["jsd", "--config", str(small_config), "--out", str(out)]) == 0
        fields = report_fields(out / "jsd_report.txt")
        purity = float(fields["purity"])
        schmidt_number = float(fields["schmidt_number"])
        assert 0.0 < purity <= 1.0
        assert purity * schmidt_number == pytest.approx(1.0, rel=1e-9)
        assert -1.05 < float(fields["ridge_slope"]) < -0.9
        header, data, comments = read_table(out / "jsd_scan.csv")
        assert header == ("signal_nm", "idler_nm", "intensity")
        assert data.shape[0] == 151 * 201
        assert any("signal axis" in comment for comment in comments)
        assert np.all(data[:, 2] >= 0.0)


class TestFit:
    def test_lorentzian_on_generated_drop_spectrum(self, tmp_path):
        out = tmp_path / "run"
        assert main(["ring-spectrum", "--out", str(out)]) == 0
        assert main(
            ["fit", str(out / "drop.csv"), "--model", "lorentzian", "--out", str(out)]
        ) == 0
        row = report_csv_row(out / "fit_report.csv")
        assert 2500.0 <= float(row["quality_factor"]) <= 3000.0

    def test_lasing_fit_via_dispatch(self, tmp_path):
        out = tmp_path / "run"
        assert main(["laser-curve", "--out", str(out)]) == 0
        assert main(
            [
                "fit",
                str(out / "laser_curve.csv"),
                "--model",
                "lasing",
                "--cutoff-ma",
                "130",
                "--out",
                str(out),
            ]
        ) == 0
        fields = report_fields(out / "fit_report.txt")
        threshold = float(fields["threshold_ma"].split("+/-")[0])
        assert threshold == pytest.approx(90.0, abs=0.1)

    def test_missing_input_file_exit_code(self, tmp_path):
        code = main(
            ["fit", str(tmp_path / "absent.csv"), "--model", "lasing", "--out", str(tmp_path)]
        )
        assert code == 4

    def test_malformed_row_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("current_mA,drop_power_mw\n90,0.1\nwhat\n", encoding="utf-8")
        code = main(["fit", str(bad), "--model", "lasing", "--out", str(tmp_path)])
        assert code == 4
        assert "line 3" in capsys.readouterr().err

    def test_unfittable_data_exit_code(self, tmp_path, capsys):
        dark = tmp_path / "dark.csv"
        dark.write_text(
            "current_mA,drop_power_mw\n" + "".join(f"{i},0\n" for i in range(60, 90, 5)),
            encoding="utf-8",
        )
        code = main(["fit", str(dark), "--model", "lasing", "--out", str(tmp_path)])
        assert code == 3
        assert "fit failed" in capsys.readouterr().err

    def test_bad_config_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("ring: 3\n", encoding="utf-8")
        code = main(["ring-spectrum", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2


class TestDeterminism:
    COMPARED = {
        "ring-spectrum": ("through.csv", "drop.csv"),
        "laser-curve": ("laser_curve.csv", "laser_fit.txt", "laser_fit.csv"),
        "fwm-sweep": ("fwm_sweep.csv",),
        "jsd": ("jsd_scan.csv", "jsd_report.txt"),
    }

    def test_reruns_are_bitwise_identical(self, tmp_path, small_config):
        first, second = tmp_path / "first", tmp_path / "second"
        for out in (first, second):
            for command in self.COMPARED:
                assert (
                    main([command, "--config", str(small_config), "--out", str(out)]) == 0
                )
        for files in self.COMPARED.values():
            for name in files:
                assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_manifest_stable_except_wall_clock(self, tmp_path, small_config):
        first, second = tmp_path / "first", tmp_path / "second"
        for out in (first, second):
            assert main(["jsd", "--config", str(small_config), "--out", str(out)]) == 0
        manifests = []
        for out in (first, second):
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            manifest.pop("wall_clock_seconds")
            manifests.append(manifest)
        assert manifests[0] == manifests[1]
        assert manifests[0]["config_sha256"] == manifests[1]["config_sha256"]

    def test_hash_tracks_config_text(self, tmp_path, small_config):
        edited = tmp_path / "edited.yaml"
        edited.write_text(
            small_config.read_text(encoding="utf-8") + "\n# trailing comment\n",
            encoding="utf-8",
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["fwm-sweep", "--config", str(small_config), "--out", str(out_a)]) == 0
        assert main(["fwm-sweep", "--config", str(edited), "--out", str(out_b)]) == 0
        hash_a = json.loads((out_a / "manifest.json").read_text())["config_sha256"]
        hash_b = json.loads((out_b / "manifest.json").read_text())["config_sha256"]
        assert hash_a != hash_b

    def test_seed_override_recorded(self, tmp_path):
        out = tmp_path / "run"
        assert main(["fwm-sweep", "--out", str(out), "--seed", "7"]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed"] == 7


# Edge values for every float flag; ``None`` leaves the flag at its default.
FLOAT_EDGES = (None, "0", "-1", "nan", "inf", "-inf", "1e300", "1e-300")
# Window bounds are passed as a separate pair of words, where argparse would
# read "-inf" as an option, so the window draws from the other edges.
WINDOW_EDGES = ("0", "-1", "nan", "inf", "1e300", "1e-300", "1554.4", "1557.4")
# Integer flags draw only small values: no run asks for a grid larger than
# the defaults.
INT_EDGES = (None, "-1", "0", "1", "2", "97")
NONFINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def flags(**choices) -> st.SearchStrategy[list[str]]:
    """``--flag=value`` words for each flag whose drawn value is not None."""
    words = [
        st.sampled_from(edges).map(
            lambda value, name=name: [] if value is None else [f"--{name}={value}"]
        )
        for name, edges in choices.items()
    ]
    return st.tuples(*words).map(lambda parts: [word for part in parts for word in part])


@pytest.fixture(scope="module")
def fit_inputs(tmp_path_factory):
    """A default drop spectrum and lasing curve for ``fit`` to read."""
    root = tmp_path_factory.mktemp("fit_inputs")
    assert main(["ring-spectrum", "--out", str(root)]) == 0
    assert main(["laser-curve", "--tpa", "--out", str(root)]) == 0
    return root


def run_edge_case(argv: list[str], scratch: Path) -> None:
    """``main`` returns a documented exit code and never raises, and a
    successful run writes finite numbers."""
    out = scratch / "run"
    code = main(argv + ["--out", str(out)])
    assert code in (0, 2, 3, 4), argv
    if code != 0:
        return
    for path in sorted(out.iterdir()):
        if path.name == "manifest.json":
            continue
        # format_float spells a non-finite value nan, inf or -inf.
        text = path.read_text(encoding="utf-8")
        assert not NONFINITE.search(text), (argv, path.name)


class TestArgvFuzz:
    """Edge-value argv for every numeric flag."""

    def run(self, argv: list[str]) -> None:
        with tempfile.TemporaryDirectory() as scratch:
            run_edge_case(argv, Path(scratch))

    seed = st.sampled_from(INT_EDGES).map(lambda v: [] if v is None else ["--seed", v])

    @settings(deadline=None, max_examples=60)
    @given(
        words=flags(**{"start-nm": FLOAT_EDGES, "stop-nm": FLOAT_EDGES,
                       "resolution-pm": FLOAT_EDGES}),
        seed=seed,
    )
    def test_ring_spectrum(self, words, seed):
        self.run(["ring-spectrum"] + words + seed)

    @settings(deadline=None, max_examples=80)
    @given(
        words=flags(**{"start-ma": FLOAT_EDGES, "stop-ma": FLOAT_EDGES,
                       "step-ma": FLOAT_EDGES, "cutoff-ma": FLOAT_EDGES,
                       "tpa": FLOAT_EDGES}),
        bare_tpa=st.booleans(),
    )
    def test_laser_curve(self, words, bare_tpa):
        if bare_tpa and not any(word.startswith("--tpa=") for word in words):
            words = words + ["--tpa"]
        self.run(["laser-curve"] + words)

    @settings(deadline=None, max_examples=60)
    @given(
        axis=st.sampled_from(["pump", "signal"]),
        words=flags(**{"start-mw": FLOAT_EDGES, "stop-mw": FLOAT_EDGES,
                       "fixed-mw": FLOAT_EDGES, "points": INT_EDGES}),
    )
    def test_fwm_sweep(self, axis, words):
        self.run(["fwm-sweep", "--axis", axis] + words)

    @settings(deadline=None, max_examples=40)
    @given(
        window=st.one_of(st.none(), st.tuples(st.sampled_from(WINDOW_EDGES),
                                              st.sampled_from(WINDOW_EDGES))),
        cutoff=flags(**{"cutoff-ma": FLOAT_EDGES}),
        model=st.sampled_from(["lorentzian", "lasing"]),
    )
    def test_fit(self, fit_inputs, window, cutoff, model):
        if model == "lorentzian":
            argv = ["fit", str(fit_inputs / "drop.csv"), "--model", "lorentzian"]
            argv += [] if window is None else ["--window-nm", *window]
        else:
            argv = ["fit", str(fit_inputs / "laser_curve.csv"), "--model", "lasing"] + cutoff
        self.run(argv)


def numeric_keys(node, path=()):
    """Paths to every number in a parsed YAML document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_keys(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from numeric_keys(value, path + (index,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


CONFIG_KEYS = tuple(numeric_keys(yaml.safe_load(default_config_text())))
CONFIG_EDGES = (0, -1, math.nan, math.inf, -math.inf, 1e300, 1e-300)


class TestConfigFuzz:
    """A fuzz base config with one numeric key set to an edge value, run
    through every subcommand.  The base is the packaged default with 100 pm
    JSD steps, a 61 x 61 grid, so a ``jsd`` run stays quick."""

    def test_every_number_is_a_key(self):
        assert len(CONFIG_KEYS) == 32

    # Pinned inputs whose arithmetic can raise: OverflowError from an
    # infinite JSD axis, a huge resonance, loop loss, signal wavelength or
    # nonlinear parameter, ZeroDivisionError from a zero radius, a tiny
    # saturation power or pump wavelength, or an axis whose low edge is at
    # or below 0 nm, and RuntimeWarning from an infinite ring loss or an
    # infinite or huge saturation power.  On the default 10 pm grid, a
    # signal axis starting at -1 nm would ask for 94 M joint cells.
    @settings(deadline=None, max_examples=250)
    @given(
        command=st.sampled_from(["ring-spectrum", "laser-curve", "fwm-sweep", "jsd", "fit"]),
        key=st.sampled_from(CONFIG_KEYS),
        value=st.sampled_from(CONFIG_EDGES),
    )
    @example(command="laser-curve", key=("jsd", "signal_stop_nm"), value=math.inf)
    @example(command="ring-spectrum", key=("ring", "radius_um"), value=0)
    @example(command="ring-spectrum", key=("ring", "resonance_nm"), value=1e300)
    @example(command="laser-curve", key=("loss_budget", "ring_insertion_db"), value=math.inf)
    @example(command="laser-curve", key=("loss_budget", "ring_insertion_db"), value=1e300)
    @example(command="laser-curve", key=("loss_budget", "elements", 0, "loss_db"), value=1e300)
    @example(command="laser-curve", key=("gain", "saturation_power_mw"), value=math.inf)
    @example(command="laser-curve", key=("gain", "saturation_power_mw"), value=1e300)
    @example(command="laser-curve", key=("gain", "saturation_power_mw"), value=1e-300)
    @example(command="jsd", key=("jsd", "signal_start_nm"), value=-1)
    @example(command="jsd", key=("jsd", "signal_start_nm"), value=0)
    @example(command="jsd", key=("jsd", "idler_start_nm"), value=1e-300)
    @example(command="jsd", key=("fwm", "pump_nm"), value=1e-300)
    @example(command="jsd", key=("fwm", "signal_nm"), value=1e300)
    @example(command="fwm-sweep", key=("fwm", "gamma_per_w_m"), value=1e300)
    def test_one_key_at_an_edge(self, fit_inputs, command, key, value):
        config = yaml.safe_load(default_config_text())
        config["jsd"].update(signal_step_pm=100.0, idler_step_pm=100.0)
        node = config
        for part in key[:-1]:
            node = node[part]
        node[key[-1]] = value
        argv = [command]
        if command == "fit":
            argv += [str(fit_inputs / "laser_curve.csv"), "--model", "lasing"]
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "edge.yaml"
            path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
            run_edge_case(argv + ["--config", str(path)], Path(scratch))


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "loopfwm", "--version"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "loopfwm" in result.stdout


def scipy_modules_loaded(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter and list the scipy modules it loaded."""
    source_root = str(Path(loopfwm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    # The commands print to stdout too, so the module list goes on the last line.
    script = (
        code
        + "\nimport json, sys\n"
        + "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


class TestImportCost:
    """scipy is imported only by the command that computes with it."""

    def test_cli_import_loads_no_scipy(self):
        assert scipy_modules_loaded("import loopfwm.cli") == []

    def test_laser_and_lasing_fit_load_no_scipy(self, tmp_path):
        out, curve = str(tmp_path), str(tmp_path / "laser_curve.csv")
        code = (
            "from loopfwm.cli import main\n"
            f"assert main(['laser-curve', '--tpa', '--out', {out!r}]) == 0\n"
            f"assert main(['fit', {curve!r}, '--model', 'lasing', '--out', {out!r}]) == 0\n"
        )
        assert scipy_modules_loaded(code) == []

    def test_lorentzian_fit_imports_optimizer_lazily(self, tmp_path):
        out, drop = str(tmp_path), str(tmp_path / "drop.csv")
        code = (
            "from loopfwm.cli import main\n"
            f"assert main(['ring-spectrum', '--out', {out!r}]) == 0\n"
            f"assert main(['fit', {drop!r}, '--model', 'lorentzian', '--out', {out!r}]) == 0\n"
        )
        assert "scipy.optimize" in scipy_modules_loaded(code)
