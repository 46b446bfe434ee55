"""Command-line front end binding the simulation modules together.

Subcommands
-----------
``ring-spectrum``
    Sample through- and drop-port transmission over a wavelength range.
``laser-curve``
    Sweep drive current, write the lasing curve, and fit its threshold.
``fwm-sweep``
    Sweep pump or signal power and report the log-log conversion slope.
``jsd``
    Run the scanned joint-spectral-density measurement, fit the ridge,
    and report the purity and Schmidt number of the underlying amplitude,
    exact over the scan windows in frequency.
``fit``
    Fit a Lorentzian resonance or a lasing curve read from CSV.

Every run validates its configuration up front, writes deterministic
CSV/text outputs into the output directory, and records a manifest with
the configuration hash.  A subcommand only computes; :func:`main` writes
only after the subcommand has computed every output, and removes what it
wrote if a write fails, so a failed run leaves no file.  Exit codes:
0 success, 2 configuration or parameter error, 3 a fit failed to converge
or found its data unusable, 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, default_config_text, load_config, parse_config
from .csvio import CsvParseError, format_float, read_table, write_grid, write_table
from .fitting import (
    FitConvergenceError,
    FitReport,
    Spectrum,
    fit_lasing_curve,
    fit_lorentzian,
    weighted_line,
)
from .instrument import MAX_GRID_POINTS, range_grid
from .fwm import conversion_sweep
# ``jsa`` and ``schmidt`` are not called here; they stay bound because
# bench/tracing.py wraps the layer names this module binds.
from .jsd import jsa, ridge_fit, schmidt, schmidt_purity, simulate_jsd_scan  # noqa: F401
from .laser import output_power_curve, steady_state_roundtrip
from .ring import drop_spectrum, linewidth_ghz, through_spectrum


# A function that writes one output file to the path it is given.
Writer = Callable[[Path], None]
# What a subcommand computes: a writer per output file name, and the summary to print.
Outputs = dict[str, Writer]
Run = tuple[Outputs, str]


class UnusableDataError(Exception):
    """``fit`` read data that its model cannot fit (exit 3)."""


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        config, origin = _load(args)
        directory = Path(args.out) if args.out is not None else Path(config.output_dir)
        outputs, summary = args.handler(args, config, directory)
        manifest = {
            "command": args.command,
            "config_input": origin,
            "config_sha256": hashlib.sha256(config.source_text.encode("utf-8")).hexdigest(),
            "outputs": sorted(outputs),
            "version": __version__,
        }

        def write_manifest(path: Path) -> None:
            manifest["wall_clock_seconds"] = round(time.monotonic() - started, 6)
            text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
            path.write_text(text, encoding="utf-8")

        _write_all(directory, {**outputs, "manifest.json": write_manifest})
        print(summary)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UnusableDataError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 3
    except FitConvergenceError as exc:
        print(f"numeric non-convergence: {exc}", file=sys.stderr)
        return 3
    except CsvParseError as exc:
        print(f"csv error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return 2


def _write_all(directory: Path, outputs: Outputs) -> None:
    """Write every output into ``directory``, or, if one write fails,
    remove every file and directory this call made and re-raise."""
    made = [path for path in (directory, *directory.parents) if not path.exists()]
    paths = {directory / name: write for name, write in outputs.items()}
    # Whatever lands on a fresh path is this run's, even a partial write.
    ours = [path for path in paths if not path.exists()]
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for path, write in paths.items():
            write(path)
            ours.append(path)
    except BaseException:
        for path in ours:
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        for path in made:
            with contextlib.suppress(OSError):
                path.rmdir()
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopfwm",
        description="Simulate a self-pumped microring mixing source and analyze its output.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--config", type=Path, default=None, help="config file (YAML)")
        sub.add_argument("--out", type=Path, default=None, help="output directory")

    ring = commands.add_parser(
        "ring-spectrum", help="sample through/drop port transmission spectra"
    )
    add_common(ring)
    ring.add_argument("--start-nm", type=float, default=None, help="range start (nm)")
    ring.add_argument("--stop-nm", type=float, default=None, help="range stop (nm)")
    ring.add_argument(
        "--resolution-pm", type=float, default=None, help="sample spacing (pm)"
    )
    ring.set_defaults(handler=_cmd_ring_spectrum)

    laser = commands.add_parser(
        "laser-curve", help="sweep drive current and fit the lasing threshold"
    )
    add_common(laser)
    laser.add_argument("--start-ma", type=float, default=60.0, help="first current (mA)")
    laser.add_argument("--stop-ma", type=float, default=150.0, help="last current (mA)")
    laser.add_argument("--step-ma", type=float, default=5.0, help="current step (mA)")
    laser.add_argument(
        "--cutoff-ma",
        type=float,
        default=130.0,
        help="exclude points above this current from the threshold fit",
    )
    laser.add_argument(
        "--tpa",
        type=float,
        nargs="?",
        const=0.02,
        default=None,
        metavar="DB_PER_MW",
        help="enable two-photon loss (optional coefficient, dB per mW)",
    )
    laser.set_defaults(handler=_cmd_laser_curve)

    sweep = commands.add_parser(
        "fwm-sweep", help="sweep pump or signal power and report the conversion slope"
    )
    add_common(sweep)
    sweep.add_argument(
        "--axis", choices=("pump", "signal"), default="pump", help="swept power"
    )
    sweep.add_argument("--start-mw", type=float, default=0.001, help="first power (mW)")
    sweep.add_argument("--stop-mw", type=float, default=1.0, help="last power (mW)")
    sweep.add_argument("--points", type=int, default=97, help="number of sweep points")
    sweep.add_argument(
        "--fixed-mw", type=float, default=1.0, help="power of the wave held fixed (mW)"
    )
    sweep.set_defaults(handler=_cmd_fwm_sweep)

    jsd = commands.add_parser(
        "jsd", help="simulate the scanned joint spectral density and analyze it"
    )
    add_common(jsd)
    jsd.set_defaults(handler=_cmd_jsd)

    fit = commands.add_parser("fit", help="fit a resonance or lasing curve from CSV")
    add_common(fit)
    fit.add_argument("input", type=Path, help="input CSV file")
    fit.add_argument(
        "--model", choices=("lorentzian", "lasing"), required=True, help="fit model"
    )
    fit.add_argument(
        "--column", default=None, help="value column name (default: second column)"
    )
    fit.add_argument(
        "--window-nm",
        type=float,
        nargs=2,
        default=None,
        metavar=("START", "STOP"),
        help="wavelength window for the Lorentzian fit",
    )
    fit.add_argument(
        "--cutoff-ma",
        type=float,
        default=None,
        help="high-current exclusion cutoff for the lasing fit",
    )
    fit.set_defaults(handler=_cmd_fit)
    return parser


def _load(args: argparse.Namespace) -> tuple[ExperimentConfig, str]:
    """Load the experiment config and remember where it came from."""
    if args.config is None:
        return parse_config(default_config_text()), "<packaged default>"
    return load_config(args.config), str(args.config)


def _text(lines: list[str]) -> Writer:
    """A writer of ``lines`` as a text file."""
    return lambda path: path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _table(header: tuple[str, ...], columns: tuple[np.ndarray, ...], **options) -> Writer:
    """A writer of ``columns`` as a CSV table (see :func:`write_table`)."""
    return lambda path: write_table(path, header, columns, **options)


def _report(stem: str, report: FitReport) -> Run:
    """Writers of a fit report as text and as a one-row CSV, and the text itself."""
    fields = [
        ("model", report.model),
        ("points_used", str(report.points_used)),
        ("points_excluded", str(report.points_excluded)),
        ("residual_rms", format_float(report.residual_rms)),
    ]
    lines = [f"{name}: {value}" for name, value in fields]
    for name, parameter in report.parameters.items():
        value, sigma = format_float(parameter.value), format_float(parameter.sigma)
        fields += [(name, value), (f"{name}_sigma", sigma)]
        lines.append(f"{name}: {value} +/- {sigma}")
    header, row = zip(*fields)
    return {
        f"{stem}.txt": _text(lines),
        f"{stem}.csv": _text([",".join(header), ",".join(row)]),
    }, "\n".join(lines)


def _cmd_ring_spectrum(args: argparse.Namespace, config: ExperimentConfig, directory: Path) -> Run:
    resonance = config.resonance_nm
    start = args.start_nm if args.start_nm is not None else resonance - 3.0
    stop = args.stop_nm if args.stop_nm is not None else resonance + 3.0
    resolution = (
        args.resolution_pm if args.resolution_pm is not None else config.spectrum_resolution_pm
    )
    if not start > 0.0:
        raise ConfigError(f"start wavelength must be positive, got {start} nm")
    if resolution <= 0.0:
        raise ConfigError(f"resolution must be positive, got {resolution} pm")

    wavelengths = range_grid(start, stop, resolution * 1e-3)
    through = through_spectrum(wavelengths, resonance, config.geometry, config.coupling)
    drop = drop_spectrum(wavelengths, resonance, config.geometry, config.coupling)

    outputs = {
        "through.csv": _table(("wavelength_nm", "through"), (wavelengths, through)),
        "drop.csv": _table(("wavelength_nm", "drop"), (wavelengths, drop)),
    }
    return outputs, (
        f"wrote {wavelengths.size}-point spectra to {directory} "
        f"(on-resonance through {format_float(float(through.min()))})"
    )


def _check_cutoff(cutoff_ma: float | None) -> None:
    """Reject a ``--cutoff-ma`` that is not finite; ``None`` is no cutoff."""
    if cutoff_ma is not None and not math.isfinite(cutoff_ma):
        raise ConfigError(f"--cutoff-ma must be finite, got {cutoff_ma}")


def _cmd_laser_curve(args: argparse.Namespace, config: ExperimentConfig, directory: Path) -> Run:
    _check_cutoff(args.cutoff_ma)
    currents = range_grid(args.start_ma, args.stop_ma, args.step_ma)

    if args.tpa is None:
        drop, tap = output_power_curve(config.gain, config.budget, currents)
    else:
        drop, tap = steady_state_roundtrip(
            config.gain, config.budget, currents, tpa_db_per_mw=args.tpa
        )

    report = fit_lasing_curve(currents, drop, exclusion_cutoff_ma=args.cutoff_ma)
    outputs = {
        "laser_curve.csv": _table(
            ("current_mA", "drop_power_mw", "tap_power_uw"), (currents, drop, tap * 1e3)
        ),
        **_report("laser_fit", report)[0],
    }
    return outputs, (
        f"threshold {format_float(report.value('threshold_ma'))} mA, "
        f"slope {format_float(report.value('slope_mw_per_ma'))} mW/mA "
        f"({report.points_used} points used)"
    )


def _cmd_fwm_sweep(args: argparse.Namespace, config: ExperimentConfig, directory: Path) -> Run:
    if not 2 <= args.points <= MAX_GRID_POINTS:
        raise ConfigError(
            f"a sweep needs 2 to {MAX_GRID_POINTS:,} points, got {args.points}"
        )
    if not (0.0 < args.start_mw < args.stop_mw < math.inf):
        raise ConfigError(
            f"power range must satisfy 0 < start < stop < inf, "
            f"got [{args.start_mw}, {args.stop_mw}]"
        )
    if not 0.0 < args.fixed_mw < math.inf:
        raise ConfigError(f"fixed power must be positive and finite, got {args.fixed_mw}")

    values = np.geomspace(args.start_mw, args.stop_mw, args.points)
    # An overflow shows as a non-finite power, which the check below rejects.
    with np.errstate(over="ignore"):
        idler = conversion_sweep(
            args.axis,
            values,
            args.fixed_mw,
            config.geometry,
            config.coupling,
            config.gamma_per_w_m,
        )
    if not np.all(np.isfinite(idler) & (idler > 0.0)):
        raise ConfigError(
            "idler power is not finite and positive over the sweep "
            "(the powers underflow or overflow); narrow the power range"
        )
    log_values = np.log10(values)
    slope, _, _ = weighted_line(log_values, np.log10(idler), np.ones_like(log_values))

    outputs = {
        "fwm_sweep.csv": _table(
            (f"{args.axis}_power_mw", "idler_power_mw"),
            (values, idler),
            trailer_comments=(f"loglog_slope = {format_float(slope)}",),
        )
    }
    return outputs, f"{args.axis} sweep log-log slope {format_float(slope)}"


def _cmd_jsd(args: argparse.Namespace, config: ExperimentConfig, directory: Path) -> Run:
    grid, triplet = config.jsd_grid, config.triplet
    signal_linewidth = linewidth_ghz(triplet.signal_nm, config.geometry, config.coupling)
    idler_linewidth = linewidth_ghz(triplet.idler_nm, config.geometry, config.coupling)

    matrix = simulate_jsd_scan(
        grid,
        triplet,
        pump_linewidth_ghz=config.pump_linewidth_ghz,
        signal_linewidth_ghz=signal_linewidth,
        idler_linewidth_ghz=idler_linewidth,
        resolution_fwhm_pm=config.jsd_resolution_pm,
    )
    signal_axis = grid.signal.wavelengths_nm()
    idler_axis = grid.idler.wavelengths_nm()
    ridge = ridge_fit(matrix, signal_axis, idler_axis)
    purity = schmidt_purity(
        grid, triplet, config.pump_linewidth_ghz, signal_linewidth, idler_linewidth
    )
    if not purity > 1.0 / sys.float_info.max:
        raise ConfigError(
            f"'jsd.pump_linewidth_ghz' = {config.pump_linewidth_ghz} GHz is so narrow that "
            f"the Schmidt number 1/purity is past the float range"
        )
    schmidt_number = 1.0 / purity

    comments = (
        f"signal axis: {format_float(signal_axis[0])} to "
        f"{format_float(signal_axis[-1])} nm, step {format_float(grid.signal.step_pm)} pm",
        f"idler axis: {format_float(idler_axis[0])} to "
        f"{format_float(idler_axis[-1])} nm, step {format_float(grid.idler.step_pm)} pm",
        f"pump linewidth: {format_float(config.pump_linewidth_ghz)} GHz",
        f"idler resolution: {format_float(config.jsd_resolution_pm)} pm",
    )
    report_lines = [
        f"ridge_slope: {format_float(ridge.slope)}",
        f"ridge_intercept_nm: {format_float(ridge.intercept_nm)}",
        f"ridge_rms_width_nm: {format_float(ridge.rms_width_nm)}",
        f"purity: {format_float(purity)}",
        f"schmidt_number: {format_float(schmidt_number)}",
    ]
    outputs = {
        "jsd_scan.csv": lambda path: write_grid(
            path, ("signal_nm", "idler_nm", "intensity"), signal_axis, idler_axis, matrix,
            comments=comments,
        ),
        "jsd_report.txt": _text(report_lines),
    }
    return outputs, (
        f"ridge slope {format_float(ridge.slope)}, "
        f"purity {format_float(purity)}, "
        f"K {format_float(schmidt_number)}"
    )


def _cmd_fit(args: argparse.Namespace, config: ExperimentConfig, directory: Path) -> Run:
    if args.model == "lasing" and args.window_nm is not None:
        raise ConfigError("--window-nm applies only to --model lorentzian")
    if args.model == "lorentzian" and args.cutoff_ma is not None:
        raise ConfigError("--cutoff-ma applies only to --model lasing")
    if args.window_nm is not None and not (
        -math.inf < args.window_nm[0] < args.window_nm[1] < math.inf
    ):
        raise ConfigError(
            f"--window-nm must satisfy start < stop, both finite, got {args.window_nm}"
        )
    _check_cutoff(args.cutoff_ma)
    header, data = read_table(args.input)
    if data.shape[0] == 0:
        raise UnusableDataError("file has a header but no data rows")
    if args.column is not None:
        if args.column not in header:
            raise ConfigError(
                f"column '{args.column}' not in file columns {', '.join(header)}"
            )
        value_index = header.index(args.column)
        if value_index == 0:
            raise ConfigError(
                f"column '{args.column}' is the x axis; --column names a value column"
            )
    else:
        value_index = 1
        if len(header) < 2:
            raise UnusableDataError("need at least two columns")
    xs = data[:, 0]
    ys = data[:, value_index]

    try:
        if args.model == "lorentzian":
            kind = header[value_index] if header[value_index] in ("through", "drop") else "idler"
            spectrum = Spectrum(xs, ys, kind)
            window = (
                tuple(args.window_nm) if args.window_nm is not None else (xs[0], xs[-1])
            )
            report = fit_lorentzian(spectrum, window)
        else:
            report = fit_lasing_curve(xs, ys, exclusion_cutoff_ma=args.cutoff_ma)
    except ValueError as exc:
        raise UnusableDataError(exc) from exc
    return _report("fit_report", report)
