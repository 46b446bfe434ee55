"""End-to-end tests of the command-line interface.

Commands are exercised through :func:`loopfwm.cli.main` with explicit
argument lists; subprocess tests confirm the module entry point and which
modules a fresh process imports.
"""

import contextlib
import hashlib
import io
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
from conftest import DELETE, comment_lines, edited_config

import loopfwm
from loopfwm.cli import main
from loopfwm.config import ConfigError, default_config_text, parse_config
from loopfwm.csvio import read_table, write_table
from loopfwm.jsd import simulate_jsd_scan
from loopfwm.ring import linewidth_ghz


# Edits of the packaged default config (see ``edited_config``): a 151 x 201
# JSD grid at 20 pm steps, and 100 pm JSD steps, a 61 x 61 grid.
SMALL_JSD = (
    (("jsd", "signal_start_nm"), 1562.0),
    (("jsd", "signal_stop_nm"), 1565.0),
    (("jsd", "signal_step_pm"), 20.0),
    (("jsd", "idler_start_nm"), 1546.5),
    (("jsd", "idler_stop_nm"), 1550.5),
    (("jsd", "idler_step_pm"), 20.0),
)
COARSE_JSD = ((("jsd", "signal_step_pm"), 100.0), (("jsd", "idler_step_pm"), 100.0))


def coupling_amplitudes(through: float, drop: float, loss: float) -> tuple:
    """Edits that set the ring's coupling by its amplitudes, not by Q and extinction."""
    keys = ("quality_factor", "extinction", "through_amplitude", "drop_amplitude",
            "loss_amplitude")
    values = (DELETE, DELETE, through, drop, loss)
    return tuple((("ring", "coupling", key), value) for key, value in zip(keys, values))


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "bench.yaml"
    path.write_text(edited_config(*SMALL_JSD), encoding="utf-8")
    return path


def column(path, name: str) -> np.ndarray:
    header, data = read_table(path)
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

    def test_zero_extinction_accepted(self, tmp_path):
        path = tmp_path / "critical.yaml"
        path.write_text(
            edited_config((("ring", "coupling", "extinction"), 0.0)), encoding="utf-8"
        )
        out = tmp_path / "run"
        assert main(["ring-spectrum", "--config", str(path), "--out", str(out)]) == 0
        assert float(column(out / "through.csv", "through").min()) < 1e-6

    def test_halving_resolution_doubles_rows(self, tmp_path):
        coarse, fine = tmp_path / "coarse", tmp_path / "fine"
        assert main(["ring-spectrum", "--out", str(coarse)]) == 0
        assert main(["ring-spectrum", "--out", str(fine), "--resolution-pm", "25"]) == 0
        _, coarse_data = read_table(coarse / "through.csv")
        _, fine_data = read_table(fine / "through.csv")
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
        "bound",
        ["--stop-ma=inf", "--start-ma=nan", "--step-ma=inf", "--tpa=nan", "--tpa=inf",
         "--cutoff-ma=nan", "--cutoff-ma=inf"],
    )
    def test_nonfinite_arguments_rejected(self, tmp_path, bound):
        # Rejected before the sweep runs, so no curve of nan powers is written.
        assert main(["laser-curve", "--out", str(tmp_path / "run"), bound]) == 2
        assert not (tmp_path / "run" / "laser_curve.csv").exists()

    def test_failed_fit_writes_nothing(self, tmp_path, capsys):
        # Nothing lases through a 1e300 dB ring, so the threshold fit fails;
        # the curve of zeros computed before it must not be written either.
        path = tmp_path / "dark.yaml"
        path.write_text(
            edited_config((("loss_budget", "ring_insertion_db"), 1e300)), encoding="utf-8"
        )
        out = tmp_path / "run"
        assert main(["laser-curve", "--config", str(path), "--out", str(out)]) == 2
        assert "all points are below threshold" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--tpa", "0"]])
    def test_zero_loss_loop_rejected(self, tmp_path, capsys, extra):
        # The ring and each of the seven elements lossless.
        lossless = [(("loss_budget", "elements", index, "loss_db"), 0.0) for index in range(7)]
        path = tmp_path / "lossless.yaml"
        path.write_text(
            edited_config((("loss_budget", "ring_insertion_db"), 0.0), *lossless),
            encoding="utf-8",
        )
        argv = ["laser-curve", "--config", str(path), "--out", str(tmp_path / "run")]
        assert main(argv + extra) == 2
        assert "loop loss is 0 dB" in capsys.readouterr().err


# instrument.range_grid alone checks the bounds of both linear sweeps.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["ring-spectrum", "--start-nm=1556", "--stop-nm=1555"],
         "grid stop must exceed its start, got [1556.0, 1555.0]"),
        (["laser-curve", "--start-ma=100", "--stop-ma=90"],
         "grid stop must exceed its start, got [100.0, 90.0]"),
        (["laser-curve", "--step-ma=0"], "grid step must be positive, got 0.0"),
        (["laser-curve", "--step-ma=-5"], "grid step must be positive, got -5.0"),
    ],
    ids=["reversed_wavelengths", "reversed_currents", "zero_step", "negative_step"],
)
def test_bad_sweep_is_rejected_by_the_grid(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"invalid parameter: {message}\n"
    assert not (tmp_path / "run").exists()


class TestFailedWrite:
    def test_unwritable_output_leaves_only_what_was_there(self, tmp_path, capsys):
        # ``through.csv`` is written first; ``drop.csv`` is a directory.
        (tmp_path / "drop.csv").mkdir()
        assert main(["ring-spectrum", "--out", str(tmp_path)]) == 4
        assert "i/o error" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["drop.csv"]
        assert (tmp_path / "drop.csv").is_dir()

    def test_failed_write_removes_the_directories_it_made(self, tmp_path, monkeypatch):
        def fail_on_drop(path, *args, **kwargs):
            if path.name == "drop.csv":
                path.write_text("partial", encoding="utf-8")
                raise OSError("disk full")
            write_table(path, *args, **kwargs)

        monkeypatch.setattr("loopfwm.cli.write_table", fail_on_drop)
        assert main(["ring-spectrum", "--out", str(tmp_path / "a" / "b")]) == 4
        assert list(tmp_path.iterdir()) == []


class TestFwmSweep:
    def slope_from(self, path) -> float:
        summary = [c for c in comment_lines(path) if c.startswith("loglog_slope")]
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

    @pytest.mark.parametrize(
        "axis, digest",
        [
            ("pump", "b613fff664ccd8def65a87b36f6fd436c258a6970e3e5ecd1b546e121be7ea5c"),
            ("signal", "84cd024a7d79a9f382d8ddaa0c4bae14004a116ee0d935686308db07af2b5a62"),
        ],
    )
    def test_default_sweep_bytes(self, tmp_path, capsys, axis, digest):
        # The SHA-256 of the default sweep, so a change to the conversion
        # formula's arithmetic shows as a changed file.
        out = tmp_path / "run"
        assert main(["fwm-sweep", "--axis", axis, "--out", str(out)]) == 0
        assert hashlib.sha256((out / "fwm_sweep.csv").read_bytes()).hexdigest() == digest
        slope = {"pump": 2, "signal": 1}[axis]
        assert capsys.readouterr().out == f"{axis} sweep log-log slope {slope}\n"

    def test_single_point_rejected(self, tmp_path):
        code = main(["fwm-sweep", "--out", str(tmp_path / "run"), "--points", "1"])
        assert code == 2

    def test_point_cap(self, tmp_path, capsys, monkeypatch):
        # Rejected before the power grid is built: uncapped, 10,000,001
        # points write a 340 MB table.
        def refuse(*args, **kwargs):
            raise AssertionError("fwm-sweep built its power grid")

        monkeypatch.setattr(np, "geomspace", refuse)
        out = tmp_path / "run"
        assert main(["fwm-sweep", "--out", str(out), "--points", "10000001"]) == 2
        assert "a sweep needs 2 to 10,000,000 points" in capsys.readouterr().err
        assert not out.exists()

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
        header, data = read_table(out / "jsd_scan.csv")
        assert header == ("signal_nm", "idler_nm", "intensity")
        assert data.shape[0] == 151 * 201
        assert any("signal axis" in comment for comment in comment_lines(out / "jsd_scan.csv"))
        assert np.all(data[:, 2] >= 0.0)

    def test_halved_steps_keep_the_report(self, tmp_path, default_runs):
        # Purity and K are integrals over the windows in frequency and the
        # width takes out the step's own share, so no reported number is a
        # grid artifact.  Both steps of the default config halved: 1201^2.
        path = tmp_path / "half.yaml"
        path.write_text(
            edited_config((("jsd", "signal_step_pm"), 5.0), (("jsd", "idler_step_pm"), 5.0)),
            encoding="utf-8",
        )
        assert main(["jsd", "--config", str(path), "--out", str(tmp_path / "half")]) == 0
        default = report_fields(default_runs["jsd"][2] / "jsd_report.txt")
        halved = report_fields(tmp_path / "half" / "jsd_report.txt")
        assert sorted(halved) == sorted(default)
        for name, value in default.items():
            assert float(halved[name]) == pytest.approx(float(value), rel=1e-3), name

    def test_runs_without_an_svd(self, tmp_path, small_config, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("jsd computed an SVD")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        assert main(["jsd", "--config", str(small_config), "--out", str(tmp_path / "run")]) == 0

    def test_pump_pole_on_an_idler_cell_edge(self, tmp_path):
        # These idler bounds put a cell edge exactly on the ridge in the row
        # at signal 1563 nm, and the narrow pump puts its pole 1e-9 GHz off
        # the real axis there, where 1 + w of the cell mean is nearly 0.  At
        # 1e-160 GHz |w| passes 1e154, so |1 + w|^2 overflows, and far cells
        # hold subnormal means.
        for width in (1.0e-9, 1.0e-160):
            path = tmp_path / f"edge_{width:g}.yaml"
            path.write_text(
                edited_config(
                    (("jsd", "pump_linewidth_ghz"), width),
                    (("jsd", "idler_start_nm"), 1546.309755020285),
                    (("jsd", "idler_stop_nm"), 1552.309755020285),
                ),
                encoding="utf-8",
            )
            out = tmp_path / f"run_{width:g}"
            assert main(["jsd", "--config", str(path), "--out", str(out)]) == 0, width
            for name in ("jsd_scan.csv", "jsd_report.txt"):
                text = (out / name).read_text(encoding="utf-8")
                assert not NONFINITE.search(text), (width, name)
            width_nm = report_fields(out / "jsd_report.txt")["ridge_rms_width_nm"]
            assert math.isfinite(float(width_nm)), width

    def test_schmidt_number_past_float_range_names_the_key(self, tmp_path, capsys):
        # K is about Gamma/(5 delta): 2.8e308 here, past the largest float.
        path = tmp_path / "narrow.yaml"
        path.write_text(
            edited_config(*COARSE_JSD, (("jsd", "pump_linewidth_ghz"), 5e-308)), encoding="utf-8"
        )
        assert main(["jsd", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert "'jsd.pump_linewidth_ghz'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "edits, named",
        [
            (((("jsd", "idler_step_pm"), 0.1), (("jsd", "signal_step_pm"), 100.0),
              (("instrument", "jsd_resolution_pm"), 1.0e308)), "1e+308 pm"),
            (((("instrument", "jsd_resolution_pm"), 1e5),), "100000 pm"),
        ],
    )
    def test_blur_wider_than_the_idler_axis_is_refused(self, tmp_path, capsys, edits, named):
        # The first blur's kernel width overflows an integer; the second, a
        # 100 nm blur on the 6 nm idler window, would flatten every row if cut.
        path = tmp_path / "wide.yaml"
        path.write_text(edited_config(*edits), encoding="utf-8")
        assert main(["jsd", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"resolution of {named} FWHM" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_blur_far_below_a_step_is_no_blur(self, tmp_path):
        # 5e-324 pm is 0 nm: the one-tap kernel, as for no blur at all.
        runs = {}
        for resolution in (5e-324, 0):
            path = tmp_path / f"blur_{resolution}.yaml"
            path.write_text(
                edited_config(*COARSE_JSD, (("instrument", "jsd_resolution_pm"), resolution)),
                encoding="utf-8",
            )
            out = tmp_path / f"run_{resolution}"
            assert main(["jsd", "--config", str(path), "--out", str(out)]) == 0
            runs[resolution] = [
                [line for line in (out / name).read_text(encoding="utf-8").splitlines()
                 if not line.startswith("#")]
                for name in ("jsd_scan.csv", "jsd_report.txt")
            ]
        assert runs[5e-324] == runs[0]

    @pytest.mark.parametrize(
        "edits, message",
        [
            (((("jsd", "signal_start_nm"), 1570.0), (("jsd", "signal_stop_nm"), 1576.0)),
             "signal axis [1570.000, 1576.000] nm does not cover the signal resonance "
             "at 1563.450 nm"),
            (((("jsd", "signal_start_nm"), 1563.0), (("jsd", "signal_stop_nm"), 1564.0)),
             "signal axis spans 122.6 GHz, less than four linewidths (280.3 GHz); "
             "widen the grid"),
            (coupling_amplitudes(0.5, 0.5, 0.5),
             "round-trip factor 0.125000 is too small for a resolvable linewidth "
             "(needs > 0.171573)"),
            # The loaded width in nm is finite, but c times it is not.
            ((*coupling_amplitudes(0.91, 0.9538, 0.954), (("ring", "fsr_nm"), DELETE),
              (("ring", "group_index"), 4.2), (("ring", "radius_um"), 1e-305)),
             "resonance at 1563.45 nm has no finite linewidth (got inf GHz)"),
        ],
        ids=["window-misses-resonance", "window-under-four-linewidths",
             "roundtrip-factor-too-small", "linewidth-past-float-range"],
    )
    def test_unusable_window_or_ring_is_refused(self, tmp_path, capsys, edits, message):
        path = tmp_path / "bad.yaml"
        path.write_text(edited_config(*edits), encoding="utf-8")
        assert main(["jsd", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"invalid parameter: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_scan_csv_is_the_long_form_table(self, tmp_path):
        # The grid writer must write what write_table writes for the repeated
        # signal axis, the tiled idler axis and the raveled scan.
        config_path = tmp_path / "coarse.yaml"
        config_path.write_text(edited_config(*COARSE_JSD), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["jsd", "--config", str(config_path), "--out", str(out)]) == 0
        config = parse_config(config_path.read_text(encoding="utf-8"))
        triplet = config.triplet
        matrix = simulate_jsd_scan(
            config.jsd_grid,
            triplet,
            pump_linewidth_ghz=config.pump_linewidth_ghz,
            signal_linewidth_ghz=linewidth_ghz(triplet.signal_nm, config.geometry,
                                               config.coupling),
            idler_linewidth_ghz=linewidth_ghz(triplet.idler_nm, config.geometry,
                                              config.coupling),
            resolution_fwhm_pm=config.jsd_resolution_pm,
        )
        signal = config.jsd_grid.signal.wavelengths_nm()
        idler = config.jsd_grid.idler.wavelengths_nm()
        assert matrix.shape == (61, 61)
        expected = tmp_path / "expected.csv"
        write_table(
            expected,
            ("signal_nm", "idler_nm", "intensity"),
            (np.repeat(signal, idler.size), np.tile(idler, signal.size), matrix.ravel()),
            comments=comment_lines(out / "jsd_scan.csv"),
        )
        assert (out / "jsd_scan.csv").read_bytes() == expected.read_bytes()


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

    def test_origin_line_prints_no_negative_zero(self, tmp_path):
        # An exact line through the origin fits intercept 0, so its threshold
        # -intercept/slope is -0.0, which once printed as "-0".
        table = tmp_path / "origin.csv"
        table.write_text("current_mA,drop_power_mw\n1,1\n2,2\n3,3\n4,4\n", encoding="utf-8")
        out = tmp_path / "run"
        assert main(["fit", str(table), "--model", "lasing", "--out", str(out)]) == 0
        assert report_fields(out / "fit_report.txt")["threshold_ma"] == "0 +/- 0"
        row = report_csv_row(out / "fit_report.csv")
        assert (row["threshold_ma"], row["threshold_ma_sigma"]) == ("0", "0")

    def test_large_trace_report_bytes(self, tmp_path, noisy_drop):
        out = tmp_path / "run"
        assert main(["fit", str(noisy_drop), "--model", "lorentzian", "--out", str(out)]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("fit_report.txt", "fit_report.csv")
        }
        assert digests == {
            "fit_report.txt": "5871602f220910a6d596ef637e8c978a1521ffa804949d123b44590734e5ccb1",
            "fit_report.csv": "663b08b86577ddbd5eed55769ea18b9e2007123dd553ea5a8b916c142081d469",
        }

    def test_window_past_float_range_does_not_converge(self, tmp_path, capsys):
        # 21 wavelengths from -1.5e308 to 1.5e308 with the peak on the first:
        # distances from it pass float range.
        table = tmp_path / "huge.csv"
        lines = [f"{k * 1.5e307:.12g},{1.0 if k == -10 else 0.2}" for k in range(-10, 11)]
        table.write_text("wavelength_nm,drop\n" + "\n".join(lines) + "\n", encoding="utf-8")
        argv = ["fit", str(table), "--model", "lorentzian", "--out", str(tmp_path / "run")]
        assert main(argv) == 3
        assert "RuntimeWarning" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, column",
        [
            ("current_mA,drop_power_mw\n60,0\n70,0\n80,0\n90,0\n"
             "100,0.25\n110,0.5\n120,0.75\n", "current_mA"),
            ("x\n60\n70\n80\n90\n100\n110\n120\n", "x"),
        ],
        ids=["two_columns", "one_column"],
    )
    def test_column_naming_the_x_axis_rejected(self, tmp_path, capsys, text, column):
        # Unchecked, both fit the x column against itself and report a slope of 1.
        table = tmp_path / "table.csv"
        table.write_text(text, encoding="utf-8")
        argv = ["fit", str(table), "--model", "lasing", "--column", column]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            f"config error: column '{column}' is the x axis; --column names a value column\n"
        )
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "model, flags, message",
        [
            ("lorentzian", ["--window-nm", "1557", "1554"],
             "--window-nm must satisfy start < stop, both finite, got [1557.0, 1554.0]"),
            ("lorentzian", ["--window-nm", "nan", "1557"],
             "--window-nm must satisfy start < stop, both finite, got [nan, 1557.0]"),
            ("lorentzian", ["--window-nm", "1554", "inf"],
             "--window-nm must satisfy start < stop, both finite, got [1554.0, inf]"),
            ("lorentzian", ["--cutoff-ma", "130"], "--cutoff-ma applies only to --model lasing"),
            ("lasing", ["--cutoff-ma", "nan"], "--cutoff-ma must be finite, got nan"),
            ("lasing", ["--cutoff-ma", "inf"], "--cutoff-ma must be finite, got inf"),
            ("lasing", ["--window-nm", "1", "2"],
             "--window-nm applies only to --model lorentzian"),
            ("lasing", ["--column", "drop"],
             "column 'drop' not in file columns current_mA, drop_power_mw, tap_power_uw"),
        ],
        ids=["reversed_window", "nan_window", "infinite_window", "cutoff_on_lorentzian",
             "nan_cutoff", "infinite_cutoff", "window_on_lasing", "absent_column"],
    )
    def test_bad_flags_rejected(self, tmp_path, capsys, fit_inputs, model, flags, message):
        table = fit_inputs / ("drop.csv" if model == "lorentzian" else "laser_curve.csv")
        argv = ["fit", str(table), "--model", model, *flags]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_missing_input_file_exit_code(self, tmp_path):
        code = main(
            ["fit", str(tmp_path / "absent.csv"), "--model", "lasing", "--out", str(tmp_path)]
        )
        assert code == 4

    @pytest.mark.parametrize(
        "text, message",
        [
            ("wavelength_nm,,drop\n1,2,3\n", "line 1: empty column name in header"),
            ("wavelength_nm,drop\n1,2,3\n4,5,6\n", "line 2: expected 2 fields, got 3"),
        ],
        ids=["empty_column_name", "rows_wider_than_header"],
    )
    def test_malformed_table_exit_code(self, tmp_path, capsys, text, message):
        table = tmp_path / "table.csv"
        table.write_text(text, encoding="utf-8")
        code = main(["fit", str(table), "--model", "lorentzian", "--out", str(tmp_path / "run")])
        assert code == 4
        assert capsys.readouterr().err == f"csv error: {message}\n"
        assert not (tmp_path / "run").exists()

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

    @pytest.mark.parametrize(
        "rows",
        [
            ["1555.0,0.5"],
            ["1555.0,0.5", "inf,0.4", "inf,0.3"],
            # A quoted field longer than csv.field_size_limit() reads as inf.
            ["1555.0,0.5", '"' + "1" * 131073 + '",0.4', "1555.2,0.3"],
            ["1555.0,0.5", "1555.1,nan", "1555.2,0.3"],
            ["1555.0,0.5", "1555.1,1.5", "1555.2,0.3"],
            [f"{1555.0 + 0.01 * i!r},{0.9 if i in (10, 30) else 0.1}" for i in range(41)],
            [f"{1555.0 + 0.01 * i!r},{0.9 if i == 2 else 0.1}" for i in range(5)],
        ],
        ids=["one_row", "infinite_wavelength", "field_over_csv_limit", "nan_value",
             "transmission_above_ceiling", "two_lines", "five_samples"],
    )
    def test_unusable_spectrum_exit_code(self, tmp_path, capsys, rows):
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("wavelength_nm,drop\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code = main(["fit", str(spectrum), "--model", "lorentzian", "--out", str(tmp_path)])
        assert code == 3
        assert "fit failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# a\n# b\nx,y\n", "file has a header but no data rows"),
            ("# c\n\nx\n1\n2\n", "need at least two columns"),
            ("x,y\n90,1\n90,1\n90,1\n90,1\n",
             "x values carry no spread; a line cannot be determined"),
            # A slope of 1e-309 mW/mA puts the threshold past float range.
            ("x,y\n" + "".join(f"{1e300 * (1 + 0.1 * k)!r},{1 + 1e-10 * k!r}\n"
                               for k in range(4)),
             "fitted value must be finite, got -inf"),
            # A noisy slope of 1.7e308 mW/mA, whose uncertainty is past float range.
            ("x,y\n" + "".join(f"{math.ldexp(1 + k / 8, -990)!r},{math.ldexp(p, 35)!r}\n"
                               for k, p in enumerate((0.6, 1.5, 0.6, 1.5, 0.7, 1.5, 0.7, 1.6))),
             "uncertainty must be finite and nonnegative, got inf"),
        ],
        ids=["no_data_rows", "one_column", "equal_currents", "threshold_past_float_range",
             "sigma_past_float_range"],
    )
    def test_unusable_table_exit_code(self, tmp_path, capsys, text, message):
        # No table has a malformed line, so the message names none.
        table = tmp_path / "table.csv"
        table.write_text(text, encoding="utf-8")
        code = main(["fit", str(table), "--model", "lasing", "--out", str(tmp_path / "run")])
        assert code == 3
        assert capsys.readouterr().err == f"fit failed: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("port, value", [("idler", 0.5), ("drop", 0.1)])
    def test_featureless_spectrum_exit_code(self, tmp_path, capsys, port, value):
        # A window of one constant value holds no line to fit; its Jacobian's
        # zero singular value once made the covariance divide by zero.
        flat = tmp_path / "flat.csv"
        flat.write_text(
            f"wavelength_nm,{port}\n"
            + "".join(f"{1555.0 + 0.01 * i!r},{value!r}\n" for i in range(169)),
            encoding="utf-8",
        )
        code = main(["fit", str(flat), "--model", "lorentzian", "--out", str(tmp_path)])
        assert code == 3
        assert "no feature" in capsys.readouterr().err

    def test_bad_config_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("ring: 3\n", encoding="utf-8")
        code = main(["ring-spectrum", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read config file"),
            ("ring: [1\n", "config is not valid YAML"),
            ("- 1\n", "config root must be a key-value mapping"),
        ],
        ids=["missing_file", "invalid_yaml", "root_not_a_mapping"],
    )
    def test_unreadable_config_exit_code(self, tmp_path, capsys, text, message):
        path = tmp_path / "bench.yaml"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        argv = ["ring-spectrum", "--config", str(path), "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "run").exists()


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


# Each default command but ``fwm-sweep`` (pinned in ``TestFwmSweep``): its
# argv (``{root}`` is the directory holding every run's output directory),
# its stdout (``{out}`` is its own output directory) and the SHA-256 of each
# file it writes besides the manifest.
DEFAULT_RUNS = {
    "ring": (
        ["ring-spectrum"],
        "wrote 121-point spectra to {out} (on-resonance through 0.04)\n",
        {
            "through.csv": "a094362e1c82d2c81252bed74c6757a4761292283deebebbad585a08c953020a",
            "drop.csv": "6e9515f36c5996f0979ba55f74ad28e285a223e18002bd5a35341e03fa84d507",
        },
    ),
    "laser": (
        ["laser-curve"],
        "threshold 90 mA, slope 0.0261728280815 mW/mA (8 points used)\n",
        {
            "laser_curve.csv": "eff04aaec69190402d0f4651275d9bff3e3fcc11b913a61d07f4bf467435e453",
            "laser_fit.csv": "81929046d30f0ccf2290ec4f200bf8be0ab750852b4d09b431a5295e022765ef",
            "laser_fit.txt": "c82caf88a13054dd89bbea5bd79ae38e4a7182e047d84ae0c90547ccc768e2b8",
        },
    ),
    "laser_tpa": (
        ["laser-curve", "--tpa"],
        "threshold 89.2079140408 mA, slope 0.0229356210034 mW/mA (8 points used)\n",
        {
            "laser_curve.csv": "b4850527cc687795576db24319051b3c3599f815735670d240c8aabd4048be63",
            "laser_fit.csv": "1053103abc8d272c82face7523fe0152636c2da6181cd77c5a099407ae686e5b",
            "laser_fit.txt": "b431c54b076a7b13cf6be6d80c157a0e8fda809d8fe0b489f12739e9a944889e",
        },
    ),
    "fit_lorentzian": (
        ["fit", "{root}/ring/drop.csv", "--model", "lorentzian"],
        "model: lorentzian\n"
        "points_used: 121\n"
        "points_excluded: 0\n"
        "residual_rms: 0.000262410980908\n"
        "center_nm: 1555.87005064 +/- 5.62089754013e-05\n"
        "fwhm_nm: 0.561925169982 +/- 0.000186157279995\n"
        "amplitude: 0.634955631243 +/- 0.000127295003642\n"
        "baseline: 0.00353483157154 +/- 3.29390988841e-05\n"
        "quality_factor: 2768.8207145 +/- 0.917268283412\n"
        "peak: 0.638490462814 +/- 0.000129576297605\n",
        {
            "fit_report.csv": "de0684483cf4f9a66ff4d2386517895a5cd116d220e92bf35e6584ee6896dd8f",
            "fit_report.txt": "73b04de3406f5c621a41d9834b9e7f82b37029594263113cb6414d39e7018356",
        },
    ),
    "fit_lasing": (
        ["fit", "{root}/laser_tpa/laser_curve.csv", "--model", "lasing", "--cutoff-ma", "130"],
        "model: lasing\n"
        "points_used: 8\n"
        "points_excluded: 11\n"
        "residual_rms: 0.00545472035623\n"
        "slope_mw_per_ma: 0.0229356210034 +/- 0.000194378044892\n"
        "intercept_mw: -2.04603890694 +/- 0.0219806247909\n"
        "threshold_ma: 89.2079140408 +/- 0.219984939659\n",
        {
            "fit_report.csv": "e853d6f7a07d6547f9adf5f57d451e08c7ac367b07ea4cb357422576bc9aaee4",
            "fit_report.txt": "5b64d8f3148f49e68f759c04b9a5c4a42621d7b479c8d7ebfe5c39d8aefe314d",
        },
    ),
    "jsd": (
        ["jsd"],
        "ridge slope -0.978542674058, purity 0.00356169083734, K 280.765525608\n",
        {
            "jsd_scan.csv": "27a7a59b0ffc17efadc3b18962c49f30fdb4ecceb96344ddb36518db23808a72",
            "jsd_report.txt": "0bb7136e907d7573ae1cdc24c45b66cbb49934dea4a4de9cb379418690678af9",
        },
    ),
}


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """Exit code, stdout and output directory of each run in ``DEFAULT_RUNS``."""
    root = tmp_path_factory.mktemp("default_runs")
    results = {}
    for name, (argv, _, _) in DEFAULT_RUNS.items():
        out = root / name
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([word.format(root=root) for word in argv] + ["--out", str(out)])
        results[name] = code, stdout.getvalue(), out
    return results


class TestDefaultOutputs:
    """Every byte a default command writes or prints, so that a change to
    any output shows as a failed test rather than only in the benchmark."""

    @pytest.mark.parametrize("name", DEFAULT_RUNS)
    def test_stdout_and_manifest(self, default_runs, name):
        code, stdout, out = default_runs[name]
        _, expected_stdout, digests = DEFAULT_RUNS[name]
        assert code == 0
        assert stdout == expected_stdout.format(out=out)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["outputs"] == sorted(digests)
        assert sorted(path.name for path in out.iterdir()) == sorted([*digests, "manifest.json"])

    @pytest.mark.parametrize(
        "name, file", [(name, file) for name, run in DEFAULT_RUNS.items() for file in run[2]]
    )
    def test_file_bytes(self, default_runs, name, file):
        out = default_runs[name][2]
        digest = hashlib.sha256((out / file).read_bytes()).hexdigest()
        assert digest == DEFAULT_RUNS[name][2][file]


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
    """``main`` returns a documented exit code and never raises, a failed
    run leaves no file behind, and a successful run writes finite numbers."""
    out = scratch / "run"
    code = main(argv + ["--out", str(out)])
    assert code in (0, 2, 3, 4), argv
    if code != 0:
        assert not out.exists(), (argv, sorted(path.name for path in out.iterdir()))
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

    @settings(deadline=None, max_examples=60)
    @given(
        words=flags(**{"start-nm": FLOAT_EDGES, "stop-nm": FLOAT_EDGES,
                       "resolution-pm": FLOAT_EDGES}),
    )
    def test_ring_spectrum(self, words):
        self.run(["ring-spectrum"] + words)

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


# Values a CSV may hold at the edges of float range, for ``fit`` to read.
CSV_EDGES = (math.nan, math.inf, -math.inf, 0.0, 1e300, -1e300, 1e-300, 1.7e308, -1.7e308)
# A clean 12-row curve per model, which the fuzz then scales and edits: a
# lasing curve with its threshold at 90 mA, and a peak 0.57 nm wide at
# 1555.87 nm, read as a drop-port transmission or as an unbounded idler power.
CSV_BASE = {
    "lasing": (
        "current_mA,drop_power_mw",
        [(60.0 + 5.0 * i, max(0.0, 0.02 * (5.0 * i - 30.0))) for i in range(12)],
    ),
    "lorentzian": (
        "wavelength_nm,{port}",
        [(1555.57 + 0.05 * i, 0.9 / (1.0 + (0.05 * i - 0.3) ** 2 / 0.08)) for i in range(12)],
    ),
}


class TestCsvFuzz:
    """Edge-value CSVs for ``fit``: what it reads, not only its flags."""

    @settings(deadline=None, max_examples=80)
    @given(
        model=st.sampled_from(["lorentzian", "lasing"]),
        port=st.sampled_from(["drop", "idler"]),
        scale=st.sampled_from([1.0, 1e300, -1e300]),
        count=st.integers(0, 12),
        edits=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 1), st.sampled_from(CSV_EDGES)),
            max_size=12,
        ),
        order=st.sampled_from(["increasing", "repeated", "decreasing"]),
    )
    @example(model="lasing", port="drop", scale=1.0, count=12, edits=[(11, 1, 1.7e308)],
             order="increasing")
    @example(model="lasing", port="drop", scale=1.0, count=12, edits=[(11, 0, 1e300)],
             order="increasing")
    @example(model="lasing", port="drop", scale=1.0, count=11, edits=[(3, 1, -1.7e308)],
             order="increasing")
    @example(model="lorentzian", port="drop", scale=1.0, count=2,
             edits=[(0, 0, 1.7e308), (1, 0, -1.7e308)], order="increasing")
    @example(model="lorentzian", port="drop", scale=1.0, count=10, edits=[(0, 0, -1.7e308)],
             order="increasing")
    # The dip near 1e300 overflowed the squared residuals of the Lorentzian fit.
    @example(model="lorentzian", port="idler", scale=-1e300, count=12, edits=[],
             order="increasing")
    def test_fit(self, model, port, scale, count, edits, order):
        header, base = CSV_BASE[model]
        header = header.format(port=port)
        rows = [[x, scale * y] for x, y in base[:count]]
        for row, column, value in edits:
            if row < count:
                rows[row][column] = value
        if order == "repeated" and count >= 2:
            rows[1][0] = rows[0][0]
        elif order == "decreasing":
            rows.reverse()
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "input.csv"
            path.write_text(
                header + "\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows), encoding="utf-8"
            )
            run_edge_case(["fit", str(path), "--model", model], Path(scratch))


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


def key_name(path: tuple) -> str:
    """A key path as config errors spell it, e.g. ``loss_budget.elements[0].loss_db``."""
    return "".join(f"[{part}]" if isinstance(part, int) else f".{part}" for part in path)[1:]


CONFIG_KEYS = tuple(numeric_keys(yaml.safe_load(default_config_text())))
CONFIG_EDGES = (0, -1, math.nan, math.inf, -math.inf, 1e300, 1e-300, 1.7e308, 5e-324)
# Each subcommand, and ``laser-curve`` with the default two-photon loss, a
# huge one, and one that is zero once converted to nepers.
CONFIG_COMMANDS = ("ring-spectrum", "laser-curve", "laser-curve --tpa",
                   "laser-curve --tpa=1e300", "laser-curve --tpa=5e-324",
                   "fwm-sweep", "jsd", "fit")


class TestConfigFuzz:
    """The packaged default with one or two numeric keys set to edge values,
    run through every subcommand.  Its JSD steps are 100 pm (``COARSE_JSD``),
    a 61 x 61 grid, so a ``jsd`` run stays quick."""

    def test_every_number_is_a_key(self):
        assert len(CONFIG_KEYS) == 31

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("key", CONFIG_KEYS, ids=key_name)
    def test_nonfinite_value_names_its_key(self, key, value):
        # Rejected where the value is read, before any model sees it.
        with pytest.raises(ConfigError, match=re.escape(f"'{key_name(key)}' must be")):
            parse_config(edited_config(*COARSE_JSD, (key, value)))

    # Pinned inputs whose arithmetic can raise: OverflowError from an
    # infinite JSD axis, a huge resonance, loop loss, signal wavelength or
    # nonlinear parameter, ZeroDivisionError from a zero radius, a tiny
    # saturation power or pump wavelength, or an axis whose start is at or
    # below 0 nm, and RuntimeWarning from an infinite ring loss or an
    # infinite or huge saturation power, a gain slope or a loop laser
    # power past float range, a JSD axis start whose frequency c/start
    # overflows, or a subnormal pump linewidth that the JSD scan divides by.  On the default 10 pm grid, a signal axis
    # starting at -1 nm would ask for 94 M joint cells.
    @settings(deadline=None, max_examples=250)
    @given(
        command=st.sampled_from(CONFIG_COMMANDS),
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
    @example(command="laser-curve", key=("gain", "calibration_gain_db"), value=1.7e308)
    @example(command="laser-curve --tpa", key=("gain", "calibration_gain_db"), value=1.7e308)
    @example(command="laser-curve --tpa=1e300", key=("gain", "calibration_gain_db"),
             value=1.7e308)
    @example(command="laser-curve --tpa=5e-324", key=("gain", "calibration_gain_db"),
             value=1.7e308)
    @example(command="laser-curve", key=("gain", "saturation_power_mw"), value=1.7e308)
    @example(command="laser-curve --tpa=5e-324", key=("gain", "saturation_power_mw"),
             value=1.7e308)
    @example(command="jsd", key=("jsd", "pump_linewidth_ghz"), value=5e-324)
    def test_one_key_at_an_edge(self, fit_inputs, command, key, value):
        self.run(fit_inputs, command, [(key, value)])

    # Two keys at once.  Pinned: a pump so narrow that dividing the signal
    # detunings of a window reaching down to 0.5 nm by it overflows, and a
    # radius and FSR whose product underflows to 0.
    @settings(deadline=None, max_examples=100)
    @given(
        command=st.sampled_from(CONFIG_COMMANDS),
        keys=st.lists(st.sampled_from(CONFIG_KEYS), min_size=2, max_size=2, unique=True),
        values=st.tuples(st.sampled_from(CONFIG_EDGES), st.sampled_from(CONFIG_EDGES)),
    )
    @example(command="jsd", keys=[("jsd", "pump_linewidth_ghz"), ("jsd", "signal_start_nm")],
             values=(1e-300, 0.5))
    @example(command="ring-spectrum", keys=[("ring", "radius_um"), ("ring", "fsr_nm")],
             values=(1e-300, 1e-300))
    def test_two_keys_at_edges(self, fit_inputs, command, keys, values):
        self.run(fit_inputs, command, list(zip(keys, values)))

    @staticmethod
    def run(fit_inputs, command: str, edits: list) -> None:
        argv = command.split()
        if command == "fit":
            argv += [str(fit_inputs / "laser_curve.csv"), "--model", "lasing"]
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "edge.yaml"
            path.write_text(edited_config(*COARSE_JSD, *edits), encoding="utf-8")
            run_edge_case(argv + ["--config", str(path)], Path(scratch))


def source_env() -> dict[str, str]:
    """The environment with this checkout's sources first on ``PYTHONPATH``,
    so a fresh interpreter imports the package under test."""
    source_root = str(Path(loopfwm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "loopfwm", "--version"],
        capture_output=True,
        text=True,
        env=source_env(),
        timeout=120,
    )
    assert result.returncode == 0
    assert "loopfwm" in result.stdout


def modules_loaded(code: str, package: str) -> list[str]:
    """Run ``code`` in a fresh interpreter and list the modules of ``package``
    it loaded."""
    # The commands print to stdout too, so the module list goes on the last line.
    script = (
        code
        + "\nimport json, sys\n"
        + f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({package!r}))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=source_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


class TestImportCost:
    """Every subcommand runs on numpy and PyYAML: none loads scipy or
    numpy.ma, and the CLI does not load numpy.polynomial."""

    def test_cli_import_loads_no_scipy(self):
        assert modules_loaded("import loopfwm.cli", "scipy") == []

    def test_cli_import_loads_no_numpy_polynomial(self):
        # numpy.polynomial costs about 5 ms per process; every command would pay it.
        assert modules_loaded("import loopfwm.cli", "numpy.polynomial") == []

    def test_laser_and_lasing_fit_load_no_scipy(self, tmp_path):
        out, curve = str(tmp_path), str(tmp_path / "laser_curve.csv")
        code = (
            "from loopfwm.cli import main\n"
            f"assert main(['laser-curve', '--tpa', '--out', {out!r}]) == 0\n"
            f"assert main(['fit', {curve!r}, '--model', 'lasing', '--out', {out!r}]) == 0\n"
        )
        assert modules_loaded(code, "scipy") == []

    @pytest.fixture(scope="class")
    def command_modules(self, tmp_path_factory):
        """The modules loaded by running every default command in one process."""
        tmp_path = tmp_path_factory.mktemp("commands")
        out = str(tmp_path)
        drop, curve = str(tmp_path / "drop.csv"), str(tmp_path / "laser_curve.csv")
        commands = [
            ["ring-spectrum"],
            ["laser-curve"],
            ["laser-curve", "--tpa"],
            ["fwm-sweep"],
            ["jsd"],
            ["fit", drop, "--model", "lorentzian"],
            ["fit", curve, "--model", "lasing"],
        ]
        code = "from loopfwm.cli import main\n" + "".join(
            f"assert main({command + ['--out', out]!r}) == 0\n" for command in commands
        )
        return modules_loaded(code, "")

    def test_commands_load_no_scipy(self, command_modules):
        assert [name for name in command_modules if name.startswith("scipy")] == []

    def test_commands_load_no_numpy_ma(self, command_modules):
        # numpy.ma costs 11-22 ms per process.  The exact name is checked, as
        # numpy always loads numpy.matrixlib.
        assert "numpy.ma" not in command_modules
