"""Per-layer trace of a workload, taken from outside the program.

The traced run executes each op in-process through ``loopfwm.cli.main``.
It records a span (name, start, end, parent; one op id per command)
around every call that ``loopfwm.cli`` makes into a layer, by replacing
the names as ``loopfwm.cli`` binds them: the CLI does ``from .x import f``,
so ``loopfwm.cli.write_table`` is the name to wrap, not
``loopfwm.csvio.write_table``.  Calls to
``loopfwm.laser.saturated_single_pass_gain`` are only counted.

A layer's self time is its span minus its child spans; the op span's
self time is ``cli.self_s`` (argparse, manifest, axis repeat/tile,
reports).  Untraced passes of the same ops alternate with traced ones,
and the difference of their medians is ``trace.overhead_s``.

Run by ``run.py --trace 1`` as a child process, so that it starts with the
same environment as the end-to-end children:

    python3 bench/tracing.py --workload jsd_scan --work DIR --inputs DIR \
        --seconds 10 --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads


def _points(args, kwargs, result):
    return {"ring.points": len(args[0])}


def _written(args, kwargs, result):
    return {"csvio.write_rows": len(args[2][0]), "csvio.write_bytes": os.path.getsize(args[0])}


def _read(args, kwargs, result):
    return {"csvio.read_rows": result[1].shape[0], "csvio.read_bytes": os.path.getsize(args[0])}


def _cells(args, kwargs, result):
    return {"jsd.scan_cells": result.size}


def _fit_points(args, kwargs, result):
    return {"fitting.lorentzian_points": result.points_used}


# Name bound in loopfwm.cli -> (layer, counts taken from the call).
LAYERS = {
    "_load": ("config.load", None),
    "through_spectrum": ("ring.spectrum", _points),
    "drop_spectrum": ("ring.spectrum", _points),
    "output_power_curve": ("laser.closed_form", None),
    "steady_state_roundtrip": ("laser.roundtrip", None),
    "conversion_sweep": ("fwm.sweep", None),
    "simulate_jsd_scan": ("jsd.scan", _cells),
    "jsa": ("jsd.jsa", None),
    "schmidt": ("jsd.schmidt", None),
    "ridge_fit": ("jsd.ridge_fit", None),
    "write_table": ("csvio.write", _written),
    "read_table": ("csvio.read", _read),
    "fit_lorentzian": ("fitting.lorentzian", _fit_points),
    "fit_lasing_curve": ("fitting.lasing", None),
}
COUNTS = (
    "ring.points",
    "laser.roundtrip_calls",
    "laser.gain_solves",
    "laser.nonconverged",
    "jsd.scan_cells",
    "csvio.write_rows",
    "csvio.write_bytes",
    "csvio.read_rows",
    "csvio.read_bytes",
    "fitting.lorentzian_points",
)
SELF_TIMES = ("cli.self",) + tuple(dict.fromkeys(layer for layer, _ in LAYERS.values()))
IMPORTED = {
    "import.loopfwm_cli_s": "loopfwm.cli",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.scipy_ndimage_s": "scipy.ndimage",
    "import.yaml_s": "yaml",
}


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.gain_solves = 0
        self.op = ""
        self._stack: list[int] = []

    def call(self, name: str, measure, function, *args, **kwargs):
        record = {
            "op": self.op,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "error": None,
            "counts": {},
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            result = function(*args, **kwargs)
            if measure is not None:
                record["counts"] = measure(args, kwargs, result)
            return result
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrapper(self, name: str, measure, function):
        def traced(*args, **kwargs):
            return self.call(name, measure, function, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self, cli, laser):
        """Wrap the layer names in ``cli`` and count gain solves in ``laser``."""
        originals = {name: getattr(cli, name) for name in LAYERS}
        solve = laser.saturated_single_pass_gain

        def counted(*args, **kwargs):
            self.gain_solves += 1
            return solve(*args, **kwargs)

        try:
            for name, (layer, measure) in LAYERS.items():
                setattr(cli, name, self.wrapper(layer, measure, originals[name]))
            laser.saturated_single_pass_gain = counted
            yield self
        finally:
            for name, function in originals.items():
                setattr(cli, name, function)
            laser.saturated_single_pass_gain = solve


def layer_metrics(spans: list[dict], gain_solves: int) -> dict[str, float]:
    """Self time per layer and counts of one traced pass."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    metrics = {f"{layer}_s": 0.0 for layer in SELF_TIMES}
    metrics.update({name: 0 for name in COUNTS})
    roundtrips = []
    for index, span in enumerate(spans):
        layer = "cli.self" if span["parent"] is None else span["name"]
        duration = span["end"] - span["start"]
        metrics[f"{layer}_s"] += duration - child_time[index]
        for name, value in span["counts"].items():
            metrics[name] += value
        if span["name"] == "laser.roundtrip":
            roundtrips.append(duration)
            metrics["laser.nonconverged"] += span["error"] == "ConvergenceError"
    metrics["laser.roundtrip_calls"] = len(roundtrips)
    metrics["laser.roundtrip_max_s"] = max(roundtrips, default=0.0)
    metrics["laser.gain_solves"] = gain_solves
    return metrics


def run_pass(cli, workload, pass_dir: Path, inputs: Path, tracer: Tracer | None) -> dict:
    """Run every op in-process; time each ``main`` call, then check outputs."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    ops = []
    for op in workload.ops:
        argv = op.argv(pass_dir, inputs)
        captured = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    tracer.op = op.name
                    code = tracer.call(f"op:{op.name}", None, cli.main, argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a result to report, not a reason to stop
                print(f"{type(exc).__name__}: {exc}")
                code = 1
        ops.append({"op": op.name, "exit": code, "seconds": time.perf_counter() - started, "output": captured.getvalue()})
    for op, record in zip(workload.ops, ops):
        record["problems"], record["wrong"] = workloads.evaluate(op, pass_dir / op.name, record["exit"])
    return {"seconds": sum(record["seconds"] for record in ops), "ops": ops}


def run(workload, work: Path, inputs: Path, seconds: float) -> dict:
    """Warm up once, then alternate untraced and traced passes for ``seconds``."""
    # Imported here, not at the top: run.py imports this module and must
    # not load the program itself.
    import loopfwm.cli as cli
    import loopfwm.laser as laser

    pass_dir = work / "pass"
    run_pass(cli, workload, pass_dir, inputs, None)
    untraced, traced, per_pass, spans = [], [], [], []
    started = time.perf_counter()
    while not traced or (time.perf_counter() - started) * (1 + 1 / len(traced)) <= seconds:
        # Alternate which of the pair runs first, so drift hits both alike.
        for trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            if not trace:
                untraced.append(run_pass(cli, workload, pass_dir, inputs, None))
                continue
            tracer = Tracer()
            with tracer.installed(cli, laser):
                traced.append(run_pass(cli, workload, pass_dir, inputs, tracer))
            per_pass.append(layer_metrics(tracer.spans, tracer.gain_solves))
            spans = tracer.spans
    return {"untraced": untraced, "traced": traced, "per_pass": per_pass, "last_spans": spans}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the first import of each module in ``-X importtime`` output."""
    cumulative = {}
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
    return cumulative


def import_breakdown(env: dict[str, str], repeats: int) -> dict[str, list[float]]:
    """``import.*`` samples: fresh ``-X importtime`` imports of ``loopfwm.cli``,
    and the wall time of a fresh ``import numpy`` as the floor."""
    samples = defaultdict(list)
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import loopfwm.cli"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        cumulative = parse_importtime(done.stderr)
        for metric, module in IMPORTED.items():
            samples[metric].append(cumulative.get(module, 0.0))
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True, timeout=60)
        samples["import.python_numpy_s"].append(time.perf_counter() - started)
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--work", type=Path, required=True, help="directory for pass outputs")
    parser.add_argument("--inputs", type=Path, required=True, help="directory of seeded inputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args()
    result = run(workloads.WORKLOADS[args.workload], args.work, args.inputs, args.seconds)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
