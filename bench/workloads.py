"""Workload definitions and output checks for the loopfwm benchmark.

A workload is an ordered list of ``loopfwm`` commands (ops).  Each op
writes into its own output directory under the pass directory, and a
later op may read an earlier op's output.  Every op carries a check that
inspects those files after the clock stops and returns a list of
problems; an empty list means the output is correct.

The tolerances are those of the acceptance module
(``tests/test_acceptance.py``).  Expected row counts are the sizes of the
requested grids.  Default-config values used here mirror
``src/loopfwm/data/default.yaml``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

RESONANCE_NM = 1555.87  # ring.resonance_nm in the default config
DEFAULT_SPECTRUM_PM = 50.0  # instrument.spectrum_resolution_pm
JSD_AXIS_POINTS = 601  # 6 nm at 10 pm on both jsd axes

RIDGE_SLOPE, RIDGE_TOL = -0.981, 0.005
PURITY_K_TOL = 1e-12
Q_TRUE, Q_REL_TOL = 2750.0, 0.02
THRESHOLD_MA, THRESHOLD_TOL_MA = 90.0, 1.0
FWM_SLOPE_TOL = 1e-3
THROUGH_MAX = 0.05
DOCUMENTED_EXITS = (0, 2, 3, 4)

# Criterion 8's noisy drop trace, written for ``dense_sweeps`` from the seed.
NOISY_AMPLITUDE = 0.6382200814494171
NOISY_BASELINE = 0.2
NOISY_STEP_NM = 1e-4
NOISY_HALF_SPAN_NM = 3.0

Check = Callable[[Path], list[str]]


@dataclass(frozen=True)
class Op:
    """One fresh ``loopfwm`` command of a workload.

    ``args`` is formatted with ``dir`` (the pass directory) and ``inputs``
    (the seeded-input directory); ``--out {dir}/{name}`` is appended.
    ``seeded`` marks ops whose outputs depend on the workload seed.
    """

    name: str
    metric: str
    args: str
    check: Check
    seeded: bool = False

    def argv(self, pass_dir: Path, inputs: Path) -> list[str]:
        words = self.args.split() + ["--out", "{dir}/" + self.name]
        return [word.format(dir=pass_dir, inputs=inputs) for word in words]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]
    prepare: Callable[[Path, int], None] | None = None


def grid_count(start: float, stop: float, step: float) -> int:
    """Size of ``loopfwm.instrument.range_grid(start, stop, step)``."""
    return int(math.floor((stop - start) / step + 1e-9)) + 1


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float data of a CSV table, skipping ``#`` comments."""
    rows = [line for line in path.read_text(encoding="utf-8").splitlines() if line and not line.startswith("#")]
    header = rows[0].split(",")
    data = np.loadtxt(rows[1:], delimiter=",", ndmin=2) if len(rows) > 1 else np.empty((0, len(header)))
    return header, data


def read_report_csv(path: Path) -> dict[str, str]:
    """The single row of a fit-report CSV, keyed by column name."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != 1:
        raise ValueError(f"{path.name}: expected 1 row, got {len(rows)}")
    return rows[0]


def read_report_txt(path: Path) -> dict[str, str]:
    """``key: value`` lines of a text report."""
    pairs = (line.split(":", 1) for line in path.read_text(encoding="utf-8").splitlines())
    return {key.strip(): value.strip() for key, value in pairs}


def _outside(name: str, value: float, target: float, tol: float) -> list[str]:
    if abs(value - target) <= tol:
        return []
    return [f"{name} {value:.6g} outside {target:g} +/- {tol:g}"]


def _checked(files: tuple[str, ...], body: Callable[[Path], list[str]]) -> Check:
    """Require ``files`` (plus the manifest) to exist before ``body`` runs."""

    def check(out: Path) -> list[str]:
        missing = [name for name in files + ("manifest.json",) if not (out / name).is_file()]
        if missing:
            return [f"missing {', '.join(missing)}"]
        try:
            return body(out)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc}"]

    return check


def _table(out: Path, name: str, expected_header: list[str], rows: int) -> tuple[np.ndarray, list[str]]:
    """Read ``name`` and check its header and row count."""
    header, data = read_csv(out / name)
    problems = []
    if header != expected_header:
        problems.append(f"{name}: header {header}, expected {expected_header}")
    if data.shape[0] != rows:
        problems.append(f"{name}: {data.shape[0]} rows, expected {rows}")
    return data, problems


def check_ring(resolution_pm: float) -> Check:
    rows = grid_count(RESONANCE_NM - 3.0, RESONANCE_NM + 3.0, resolution_pm * 1e-3)

    def body(out: Path) -> list[str]:
        through, problems = _table(out, "through.csv", ["wavelength_nm", "through"], rows)
        _, drop_problems = _table(out, "drop.csv", ["wavelength_nm", "drop"], rows)
        problems += drop_problems
        if through.size and through[:, 1].min() >= THROUGH_MAX:
            problems.append(f"on-resonance through {through[:, 1].min():.4g} >= {THROUGH_MAX}")
        return problems

    return _checked(("through.csv", "drop.csv"), body)


def _threshold(report: Path) -> list[str]:
    value = float(read_report_csv(report)["threshold_ma"])
    return _outside("threshold_ma", value, THRESHOLD_MA, THRESHOLD_TOL_MA)


def check_laser(start: float, stop: float, step: float, threshold: bool = True) -> Check:
    """Row count of the current grid, and the fitted threshold unless the
    sweep is too narrow to bracket it."""
    rows = grid_count(start, stop, step)

    def body(out: Path) -> list[str]:
        header = ["current_mA", "drop_power_mw", "tap_power_uw"]
        _, problems = _table(out, "laser_curve.csv", header, rows)
        return problems + (_threshold(out / "laser_fit.csv") if threshold else [])

    return _checked(("laser_curve.csv", "laser_fit.txt", "laser_fit.csv"), body)


def check_fwm(axis: str, points: int, slope: float) -> Check:
    def body(out: Path) -> list[str]:
        header = [f"{axis}_power_mw", "idler_power_mw"]
        data, problems = _table(out, "fwm_sweep.csv", header, points)
        if data.shape[0] >= 2:
            fitted = float(np.polyfit(np.log10(data[:, 0]), np.log10(data[:, 1]), 1)[0])
            problems += _outside(f"{axis} log-log slope", fitted, slope, FWM_SLOPE_TOL)
        return problems

    return _checked(("fwm_sweep.csv",), body)


def check_fit_lorentzian() -> Check:
    def body(out: Path) -> list[str]:
        q = float(read_report_csv(out / "fit_report.csv")["quality_factor"])
        return _outside("quality_factor", q, Q_TRUE, Q_REL_TOL * Q_TRUE)

    return _checked(("fit_report.txt", "fit_report.csv"), body)


def check_fit_lasing() -> Check:
    return _checked(("fit_report.txt", "fit_report.csv"), lambda out: _threshold(out / "fit_report.csv"))


def ridge_slope(data: np.ndarray) -> float:
    """Ridge slope of a ``signal_nm,idler_nm,intensity`` scan, recomputed.

    Same estimator as ``loopfwm.jsd.ridge_fit``: each signal row's
    intensity-weighted idler centroid, then a mass-weighted line.
    """
    signal = np.unique(data[:, 0])
    idler = np.unique(data[:, 1])
    matrix = data[:, 2].reshape(signal.size, idler.size)
    mass = matrix.sum(axis=1)
    keep = mass > 0.0
    centroid = matrix[keep] @ idler / mass[keep]
    x, w = signal[keep], mass[keep]
    dx = x - np.sum(w * x) / np.sum(w)
    dy = centroid - np.sum(w * centroid) / np.sum(w)
    return float(np.sum(w * dx * dy) / np.sum(w * dx * dx))


def _print_error(text: str) -> float:
    """Largest relative error of a float printed with 12 significant digits."""
    mantissa = abs(float(text)) / 10.0 ** math.floor(math.log10(abs(float(text))))
    return 5e-12 / mantissa


def check_jsd(axis_points: int) -> Check:
    def body(out: Path) -> list[str]:
        header = ["signal_nm", "idler_nm", "intensity"]
        data, problems = _table(out, "jsd_scan.csv", header, axis_points**2)
        if not problems:
            problems += _outside("csv ridge slope", ridge_slope(data), RIDGE_SLOPE, RIDGE_TOL)
        report = read_report_txt(out / "jsd_report.txt")
        problems += _outside("ridge_slope", float(report["ridge_slope"]), RIDGE_SLOPE, RIDGE_TOL)
        # purity * K == 1 to 1e-12 in memory; the report prints 12 digits,
        # so allow the rounding of the two printed factors on top.
        purity, k = report["purity"], report["schmidt_number"]
        tol = PURITY_K_TOL + _print_error(purity) + _print_error(k)
        problems += _outside("purity*K", float(purity) * float(k), 1.0, tol)
        return problems

    return _checked(("jsd_scan.csv", "jsd_report.txt"), body)


def evaluate(op: Op, out: Path, exit_code: int) -> tuple[list[str], bool]:
    """Problems with one op's result, and whether it is a wrong answer.

    Any problem fails the op.  A wrong answer is worse than a failure: the
    op exited 0 but its outputs fail the check, or it exited with a code
    the CLI does not document (0, 2, 3 and 4), which means it crashed.
    """
    if exit_code != 0:
        return [f"exit {exit_code}"], exit_code not in DOCUMENTED_EXITS
    problems = op.check(out)
    return problems, bool(problems)


def write_noisy_drop(inputs: Path, seed: int) -> None:
    """Criterion 8's Lorentzian drop trace with 1% Gaussian noise, at 0.1 pm."""
    count = int(round(2 * NOISY_HALF_SPAN_NM / NOISY_STEP_NM)) + 1
    wavelengths = RESONANCE_NM + (np.arange(count) - (count - 1) / 2.0) * NOISY_STEP_NM
    fwhm = RESONANCE_NM / Q_TRUE
    clean = NOISY_BASELINE + NOISY_AMPLITUDE / (1.0 + (2.0 * (wavelengths - RESONANCE_NM) / fwhm) ** 2)
    noise = np.random.default_rng(seed).normal(0.0, 0.01 * NOISY_AMPLITUDE, size=count)
    lines = ["wavelength_nm,drop"] + [f"{x:.12g},{y:.12g}" for x, y in zip(wavelengths, clean + noise)]
    inputs.mkdir(parents=True, exist_ok=True)
    (inputs / "noisy_drop.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "cold_cli",
            "seven small default commands, each a fresh process dominated by import",
            (
                Op("ring", "ring_spectrum_s", "ring-spectrum", check_ring(DEFAULT_SPECTRUM_PM)),
                Op("laser", "laser_curve_s", "laser-curve", check_laser(60.0, 150.0, 5.0)),
                Op("laser_tpa", "laser_curve_tpa_s", "laser-curve --tpa", check_laser(60.0, 150.0, 5.0)),
                Op("fwm_pump", "fwm_sweep_s", "fwm-sweep --axis pump", check_fwm("pump", 97, 2.0)),
                Op("fwm_signal", "fwm_sweep_s", "fwm-sweep --axis signal", check_fwm("signal", 97, 1.0)),
                Op(
                    "fit_lorentzian",
                    "fit_lorentzian_s",
                    "fit {dir}/ring/drop.csv --model lorentzian",
                    check_fit_lorentzian(),
                ),
                Op(
                    "fit_lasing",
                    "fit_lasing_s",
                    "fit {dir}/laser_tpa/laser_curve.csv --model lasing --cutoff-ma 130",
                    check_fit_lasing(),
                ),
            ),
        ),
        Workload(
            "jsd_scan",
            "the default 601x601 jsd scan: supersampled simulation, SVD and a 12 MB CSV write",
            (Op("jsd", "jsd_s", "jsd", check_jsd(JSD_AXIS_POINTS)),),
        ),
        Workload(
            "dense_sweeps",
            "fine-step spectra, fits and laser sweeps, including the threshold zoom that fails",
            (
                Op("ring", "ring_spectrum_s", "ring-spectrum --resolution-pm 0.1", check_ring(0.1)),
                Op(
                    "fit_lorentzian",
                    "fit_lorentzian_s",
                    "fit {inputs}/noisy_drop.csv --model lorentzian",
                    check_fit_lorentzian(),
                    seeded=True,
                ),
                Op(
                    "laser_tpa",
                    "laser_curve_tpa_s",
                    "laser-curve --tpa 0.02 --start-ma 80 --stop-ma 150 --step-ma 0.1",
                    check_laser(80.0, 150.0, 0.1),
                ),
                Op(
                    "fit_lasing",
                    "fit_lasing_s",
                    "fit {dir}/laser_tpa/laser_curve.csv --model lasing --cutoff-ma 130",
                    check_fit_lasing(),
                ),
                # Exits 3 at 90.0005 mA today: the round-trip solver's known
                # failing band just above threshold.  Kept so the defect shows.
                Op(
                    "laser_zoom",
                    "laser_zoom_s",
                    "laser-curve --tpa 0.02 --start-ma 90.0 --stop-ma 90.004 --step-ma 0.0005",
                    check_laser(90.0, 90.004, 0.0005, threshold=False),
                ),
            ),
            prepare=write_noisy_drop,
        ),
    )
}
