"""Tests of the benchmark itself: its output checks, its trace and its contract.

Run with the rest of the suite (``PYTHONPATH=src python -m pytest``) or
alone with ``PYTHONPATH=src python -m pytest bench``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def write_jsd_outputs(out: Path, slope: float, points: int = 21) -> None:
    """A scan whose ridge runs along ``idler = c + slope * signal``, and a good report."""
    out.mkdir(parents=True, exist_ok=True)
    # The ridge spans half the idler axis, so no row's peak is cut off.
    signal = 1563.0 + 0.005 * np.arange(points)
    idler = 1548.0 + 0.01 * np.arange(points)
    ridge = idler[points // 2] + slope * (signal - signal[points // 2])
    matrix = np.exp(-(((idler[None, :] - ridge[:, None]) / 0.02) ** 2))
    rows = zip(np.repeat(signal, points), np.tile(idler, points), matrix.ravel())
    lines = ["# comment", "signal_nm,idler_nm,intensity"] + [f"{s:.12g},{i:.12g},{v:.12g}" for s, i, v in rows]
    (out / "jsd_scan.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    report = "ridge_slope: -0.978542487956\npurity: 0.0456659162829\nschmidt_number: 21.8981700445\n"
    (out / "jsd_report.txt").write_text(report, encoding="utf-8")
    (out / "manifest.json").write_text("{}\n", encoding="utf-8")


def write_fit_report(out: Path, quality_factor: float) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "fit_report.csv").write_text(
        f"model,points_used,quality_factor\nlorentzian,121,{quality_factor}\n", encoding="utf-8"
    )
    (out / "fit_report.txt").write_text("model: lorentzian\n", encoding="utf-8")
    (out / "manifest.json").write_text("{}\n", encoding="utf-8")


def op(check) -> workloads.Op:
    return workloads.Op("op", "op_s", "unused", check)


def test_nonzero_exit_fails_the_op(tmp_path):
    problems, wrong = workloads.evaluate(op(workloads.check_fit_lorentzian()), tmp_path, 3)
    assert problems == ["exit 3"] and not wrong
    problems, wrong = workloads.evaluate(op(workloads.check_fit_lorentzian()), tmp_path, 1)
    assert problems and wrong


def test_missing_output_fails_the_op(tmp_path):
    write_fit_report(tmp_path, 2760.0)
    (tmp_path / "fit_report.txt").unlink()
    problems, wrong = workloads.evaluate(op(workloads.check_fit_lorentzian()), tmp_path, 0)
    assert problems == ["missing fit_report.txt"] and wrong


@pytest.mark.parametrize("quality_factor, passes", [(2760.0, True), (2700.0, True), (2900.0, False)])
def test_quality_factor_tolerance(tmp_path, quality_factor, passes):
    write_fit_report(tmp_path, quality_factor)
    problems, _ = workloads.evaluate(op(workloads.check_fit_lorentzian()), tmp_path, 0)
    assert (not problems) == passes, problems


@pytest.mark.parametrize("slope, passes", [(-0.981, True), (-0.9, False)])
def test_ridge_slope_is_recomputed_from_the_csv(tmp_path, slope, passes):
    write_jsd_outputs(tmp_path, slope)
    problems, wrong = workloads.evaluate(op(workloads.check_jsd(21)), tmp_path, 0)
    assert (not problems) == passes, problems
    assert wrong != passes


def test_jsd_grid_size_is_checked(tmp_path):
    write_jsd_outputs(tmp_path, -0.981)
    problems = workloads.check_jsd(601)(tmp_path)
    assert problems == ["jsd_scan.csv: 441 rows, expected 361201"]


def test_noisy_drop_is_seeded(tmp_path):
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        workloads.write_noisy_drop(tmp_path / name, seed)
    read = lambda name: (tmp_path / name / "noisy_drop.csv").read_bytes()
    assert read("a") == read("b") != read("c")
    header, data = workloads.read_csv(tmp_path / "a" / "noisy_drop.csv")
    assert header == ["wavelength_nm", "drop"] and data.shape == (60001, 2)


@pytest.mark.parametrize("name", ["ring", "laser_tpa", "fwm_pump"])
def test_self_times_add_up_to_the_op_span(tmp_path, name):
    import loopfwm.cli as cli
    import loopfwm.laser as laser

    chosen = next(o for o in workloads.WORKLOADS["cold_cli"].ops if o.name == name)
    workload = workloads.Workload("one", "", (chosen,))
    tracer = tracing.Tracer()
    with tracer.installed(cli, laser):
        result = tracing.run_pass(cli, workload, tmp_path / "pass", tmp_path, tracer)
    assert cli.write_table.__module__ == "loopfwm.csvio"  # wrappers removed
    assert result["ops"][0]["problems"] == []
    metrics = tracing.layer_metrics(tracer.spans, tracer.gain_solves)
    self_times = {k: v for k, v in metrics.items() if k.endswith("_s") and k != "laser.roundtrip_max_s"}
    assert all(value >= 0.0 for value in self_times.values()), self_times
    [root] = [span for span in tracer.spans if span["parent"] is None]
    assert sum(self_times.values()) == pytest.approx(root["end"] - root["start"], rel=0.01)
    assert metrics["csvio.write_s"] > 0.0


def test_parse_importtime_takes_cumulative_microseconds():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       802 |     462730 |         scipy.ndimage\n"
        "import time:      8198 |    1058256 | loopfwm.cli\n"
    )
    assert tracing.parse_importtime(stderr) == {"scipy.ndimage": 0.46273, "loopfwm.cli": 1.058256}


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) == (None, None)
    percentile, value = run.tail([float(x) for x in range(1, 21)])
    assert (percentile, value) == (50.0, 10.0)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    layer_names = set(tracing.layer_metrics([], 0)) | set(tracing.IMPORTED)
    layer_names |= {"import.python_numpy_s", "trace.overhead_s"}
    assert {m["name"] for m in SPEC["per_layer"]} == layer_names


def test_refuses_to_run_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "cold_cli", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
