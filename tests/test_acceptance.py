"""Acceptance checks for the whole toolkit.

Each test exercises one acceptance criterion at its stated tolerance,
including the runtime budget, and prints a one-line verdict that
bypasses pytest's output capture so the full run always shows a
criterion-by-criterion summary.
"""

import json
import time

import numpy as np
import pytest

from loopfwm.cli import main
from loopfwm.config import default_config_text, parse_config
from loopfwm.fitting import Spectrum, fit_lasing_curve, fit_lorentzian
from loopfwm.fwm import idler_power_on_ring, idler_wavelength
from loopfwm.instrument import centered_grid, range_grid
from loopfwm.jsd import SpectralAxis, SpectralGrid, jsa, ridge_fit, schmidt, simulate_jsd_scan
from loopfwm.laser import output_power_curve, saturated_single_pass_gain, steady_state_roundtrip
from loopfwm.ring import linewidth_ghz, through_transmission

CONFIG = parse_config(default_config_text())
GAMMA_GHZ = linewidth_ghz(CONFIG.resonance_nm, CONFIG.geometry, CONFIG.coupling)
SQUARE_AXIS = SpectralAxis(center_nm=1555.0, span_nm=2.72, step_pm=10.0)
SQUARE_GRID = SpectralGrid(signal=SQUARE_AXIS, idler=SQUARE_AXIS)


def square_jsa(grid: SpectralGrid, pump_linewidth_ghz: float):
    """Joint amplitude with 70 GHz resonances at the 1555 nm grid center and
    an energy-conserving pump there too."""
    return jsa(grid, pump_linewidth_ghz, 70.0, 70.0, 1555.0, 1555.0, 1555.0)


def verdict(capsys, number: int, description: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"[{status}] criterion {number:2d}: {description} ({detail})")
    assert passed, f"criterion {number}: {description} ({detail})"


def test_criterion_01_loss_ledger(capsys):
    CONFIG.budget.total_db  # warm-up outside the timed region
    start = time.perf_counter()
    total = CONFIG.budget.total_db
    elapsed = time.perf_counter() - start
    passed = abs(total - 18.0) <= 0.01 and elapsed < 1e-3
    verdict(
        capsys, 1, "component ledger totals 18.0 dB", passed,
        f"total {total:.6f} dB in {elapsed * 1e3:.3f} ms",
    )


def test_criterion_02_threshold_current(capsys):
    # The default laser-curve sweep and fit.
    currents = range_grid(60.0, 150.0, 5.0)
    drop, _ = output_power_curve(CONFIG.gain, CONFIG.budget, currents)
    fit_lasing_curve(currents, drop, exclusion_cutoff_ma=130.0)  # warm-up
    start = time.perf_counter()
    threshold = fit_lasing_curve(currents, drop, exclusion_cutoff_ma=130.0).value("threshold_ma")
    elapsed = time.perf_counter() - start
    passed = abs(threshold - 90.0) <= 0.5 and elapsed < 1e-3
    verdict(
        capsys, 2, "lasing threshold at 90 mA", passed,
        f"threshold {threshold:.4f} mA in {elapsed * 1e3:.3f} ms",
    )


def roundtrip_fixed_point_mw(current_ma: float) -> tuple[float, int]:
    """Amplifier output power of the loop found by iterating the physical
    round trip: the amplifier input is the output times the loop
    transmission ``T``, so ``X <- G_sat(T*X) * T*X``, with the saturated
    gain from the amplifier law alone.  Stops once a round trip moves the
    power by at most 1e-15 of itself; returns the power and the steps."""
    transmission = 10.0 ** (-CONFIG.budget.loop_db / 10.0)
    power = CONFIG.gain.saturation_power_mw
    for step in range(1, 10_001):
        amplifier_in = transmission * power
        updated = saturated_single_pass_gain(CONFIG.gain, current_ma, amplifier_in) * amplifier_in
        if abs(updated - power) <= 1e-15 * power:
            return updated, step
        power = updated
    raise AssertionError(f"round trip at {current_ma} mA did not settle in 10,000 steps")


def test_criterion_03_closed_form_vs_roundtrip(capsys):
    budget = CONFIG.budget
    currents = np.linspace(1.1 * 90.0, 2.0 * 90.0, 100)
    to_drop = 10.0 ** (-(budget.amplifier_to_ring_db + budget.ring_insertion_db) / 10.0)
    start = time.perf_counter()
    closed, _ = output_power_curve(CONFIG.gain, budget, currents)
    settled = [roundtrip_fixed_point_mw(current) for current in currents]
    elapsed = time.perf_counter() - start
    iterated = np.array([power for power, _ in settled]) * to_drop
    relative = np.abs(closed - iterated) / iterated
    passed = bool(np.all(relative <= 0.01)) and elapsed < 1.0
    verdict(
        capsys, 3, "closed-form curve matches round-trip fixed point", passed,
        f"max deviation {relative.max():.2e} over 100 currents, at most "
        f"{max(steps for _, steps in settled)} round trips, in {elapsed:.3f} s",
    )


def test_criterion_04_idler_energy_conservation(capsys):
    idler = idler_wavelength(1555.87, 1563.45)
    passed = abs(idler - 1548.39) <= 0.05
    verdict(
        capsys, 4, "energy-conserving idler near 1548.39 nm", passed,
        f"idler {idler:.4f} nm, offset {abs(idler - 1548.39) * 1e3:.1f} pm",
    )


def test_criterion_05_conversion_scaling(capsys):
    triplet, geometry, coupling = CONFIG.triplet, CONFIG.geometry, CONFIG.coupling
    powers = np.geomspace(1e-3, 1.0, 97)
    start = time.perf_counter()
    versus_pump = idler_power_on_ring(triplet, powers, 1.0, geometry, coupling, 300.0)
    versus_signal = idler_power_on_ring(triplet, 1.0, powers, geometry, coupling, 300.0)
    pump_slope = np.polyfit(np.log10(powers), np.log10(versus_pump), 1)[0]
    signal_slope = np.polyfit(np.log10(powers), np.log10(versus_signal), 1)[0]
    elapsed = time.perf_counter() - start
    passed = (
        abs(pump_slope - 2.0) <= 1e-3 and abs(signal_slope - 1.0) <= 1e-3 and elapsed < 1.0
    )
    verdict(
        capsys, 5, "idler scales as pump^2 and signal^1 over 3 decades", passed,
        f"slopes {pump_slope:.6f} / {signal_slope:.6f} in {elapsed:.3f} s",
    )


def test_criterion_06_jsd_ridge_slope(capsys):
    start = time.perf_counter()
    matrix = simulate_jsd_scan(
        CONFIG.jsd_grid,
        CONFIG.triplet,
        pump_linewidth_ghz=CONFIG.pump_linewidth_ghz,
        signal_linewidth_ghz=GAMMA_GHZ,
        idler_linewidth_ghz=GAMMA_GHZ,
        resolution_fwhm_pm=67.0,
    )
    fit = ridge_fit(
        matrix,
        CONFIG.jsd_grid.signal.wavelengths_nm(),
        CONFIG.jsd_grid.idler.wavelengths_nm(),
    )
    elapsed = time.perf_counter() - start
    passed = abs(fit.slope - (-0.981)) <= 0.005 and elapsed < 30.0
    verdict(
        capsys, 6, "scanned ridge slope -0.981 +/- 0.005", passed,
        f"slope {fit.slope:.5f} on the 601x601 grid in {elapsed:.2f} s",
    )


def test_criterion_07_schmidt_properties(capsys):
    start = time.perf_counter()
    goldens = {
        10.0: 0.999926656123,
        1.0: 0.933772550453,
        0.1: 0.362612272922,
        0.01: 0.048648363200,
    }
    purities = {}
    checks = []
    for ratio, expected in goldens.items():
        result = schmidt(square_jsa(SQUARE_GRID, ratio * 70.0))
        purities[ratio] = result.purity
        checks.append(0.0 < result.purity <= 1.0)
        checks.append(abs(result.purity * result.schmidt_number - 1.0) <= 1e-12)
        checks.append(abs(result.purity - expected) <= 1e-9)
    ordered = [purities[r] for r in (10.0, 1.0, 0.1, 0.01)]
    checks.append(all(a >= b for a, b in zip(ordered, ordered[1:])))
    flat = schmidt(square_jsa(SQUARE_GRID, 100.0 * 70.0)).purity
    checks.append(flat > 0.99)
    fine_axis = SpectralAxis(center_nm=1555.0, span_nm=2.72, step_pm=5.0)
    fine = schmidt(
        square_jsa(SpectralGrid(signal=fine_axis, idler=fine_axis), 0.05 * 70.0)
    ).purity
    coarse = schmidt(square_jsa(SQUARE_GRID, 0.05 * 70.0)).purity
    checks.append(abs(fine - coarse) < 1e-3)
    elapsed = time.perf_counter() - start
    checks.append(elapsed < 60.0)
    passed = all(checks)
    verdict(
        capsys, 7, "Schmidt invariants, goldens, and refinement stability", passed,
        f"purities {', '.join(f'{p:.6f}' for p in ordered)}, flat {flat:.4f}, "
        f"refinement {abs(fine - coarse):.2e}, in {elapsed:.2f} s",
    )


def test_criterion_08_fitter_recovery(capsys):
    start = time.perf_counter()
    q_true = 2750.0
    fwhm = 1555.87 / q_true
    amplitude = 0.6382200814494171
    grid = centered_grid(1555.87, 6.0, 0.05)
    clean = 0.2 + amplitude / (1.0 + (2.0 * (grid - 1555.87) / fwhm) ** 2)
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = clean + rng.normal(0.0, 0.01 * amplitude, size=grid.size)
        report = fit_lorentzian(
            Spectrum(grid, noisy, 50.0, "drop"), (1555.87 - 3.0, 1555.87 + 3.0)
        )
        worst = max(worst, abs(report.value("quality_factor") - q_true) / q_true)

    currents = np.arange(80.0, 152.5, 5.0)
    contaminated = np.array(
        [
            steady_state_roundtrip(
                CONFIG.gain, CONFIG.budget, current, tpa_db_per_mw=0.02
            ).drop_port_power_mw
            for current in currents
        ]
    )
    threshold = fit_lasing_curve(
        currents, contaminated, exclusion_cutoff_ma=130.0
    ).value("threshold_ma")
    elapsed = time.perf_counter() - start
    passed = worst < 0.02 and abs(threshold - 90.0) <= 1.0 and elapsed < 30.0
    verdict(
        capsys, 8, "Q within 2% under noise; threshold within 1 mA with rollover", passed,
        f"worst Q error {worst:.4%}, threshold {threshold:.3f} mA, in {elapsed:.2f} s",
    )


def test_criterion_09_critical_coupling(capsys):
    on_resonance = float(through_transmission(0.0, CONFIG.coupling))
    passed = on_resonance < 0.05
    verdict(
        capsys, 9, "on-resonance through transmission below 5%", passed,
        f"transmission {on_resonance:.4f}",
    )


def test_criterion_10_cli_determinism(capsys, tmp_path):
    config_path = tmp_path / "bench.yaml"
    config_path.write_text(default_config_text(), encoding="utf-8")
    commands = [
        ["ring-spectrum"],
        ["laser-curve"],
        ["fwm-sweep", "--axis", "pump"],
        ["fwm-sweep", "--axis", "signal", "--points", "33"],
        ["jsd"],
    ]
    compared = [
        "through.csv",
        "drop.csv",
        "laser_curve.csv",
        "laser_fit.txt",
        "laser_fit.csv",
        "fwm_sweep.csv",
        "jsd_scan.csv",
        "jsd_report.txt",
        "fit_report.txt",
        "fit_report.csv",
    ]
    for out in (tmp_path / "first", tmp_path / "second"):
        for command in commands:
            code = main(
                command + ["--config", str(config_path), "--out", str(out), "--seed", "0"]
            )
            assert code == 0, command
        code = main(
            [
                "fit",
                str(out / "drop.csv"),
                "--model",
                "lorentzian",
                "--config",
                str(config_path),
                "--out",
                str(out),
            ]
        )
        assert code == 0
    mismatched = [
        name
        for name in compared
        if (tmp_path / "first" / name).read_bytes()
        != (tmp_path / "second" / name).read_bytes()
    ]
    manifests = []
    for out in ("first", "second"):
        manifest = json.loads((tmp_path / out / "manifest.json").read_text(encoding="utf-8"))
        manifest.pop("wall_clock_seconds")
        manifests.append(manifest)
    passed = not mismatched and manifests[0] == manifests[1]
    verdict(
        capsys, 10, "reruns produce bitwise-identical outputs", passed,
        f"{len(compared)} files compared"
        + (f", mismatches: {', '.join(mismatched)}" if mismatched else ""),
    )
