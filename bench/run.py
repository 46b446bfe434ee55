"""Benchmark of the ``loopfwm`` command-line tool.

Run from the repository root:

    python3 bench/run.py --workload cold_cli --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``cold_cli``, ``jsd_scan`` and
``dense_sweeps``.  One closed-loop client runs the workload's ops in order,
each as a fresh ``python -m loopfwm ...`` process, one child at a time,
because that is how a user meets this batch tool.  A pass is one run over
the op list.  Set-up imports ``loopfwm.cli`` several times in fresh
processes and runs one untimed warm-up pass, which fills the bytecode and
page caches; nothing else is warmed, since users pay import on every
command.  Timed passes repeat for ``--seconds``.  After each pass the
clock stops and every op's outputs are checked (``workloads.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``tracing.py`` plus the ``-X importtime`` breakdown.  Every
metric is printed with its unit and sample count, and the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` and ``failed`` count ops over the timed passes; an op fails
on a non-zero exit or a failed check.  ``correct`` is false when an op
gives a wrong answer: it exits 0 with outputs that fail their check, or
it crashes with an undocumented exit code.  The last line's metrics are
those ``BENCHMARK.json`` lists; the rest are printed above it.  Everything,
including the SHA-256 of every output file, the seed and the environment,
goes to ``.bench_work/<workload>/result-seed<seed>-trace<t>.json``.
A digest that differs from ``reference_digests.json`` is reported, not
failed, because a faster method may change an output within tolerance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_IMPORTS = 5
CHILD_TIMEOUT_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Metric -> unit of the last line; must match BENCHMARK.json.
END_TO_END = {"session_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env(root: Path) -> dict[str, str]:
    """Environment of every child: the source tree first on the path, and
    BLAS/OpenMP pools capped at the CPUs this process may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    nproc = str(len(os.sched_getaffinity(0)))
    env.update({name: nproc for name in THREAD_VARS})
    return env


class Child(NamedTuple):
    exit: int
    seconds: float  # wall time
    cpu_seconds: float  # user + system time
    rss_kib: int  # peak resident set size


def run_child(argv: list[str], env: dict[str, str], log: Path) -> Child:
    """Run one fresh process and report how it ended and what it used.

    The child is reaped with ``wait4`` for its own resource usage; a timer
    kills it if it outlives ``CHILD_TIMEOUT_S``.
    """
    with open(log, "wb") as handle:
        started = time.perf_counter()
        child = subprocess.Popen(argv, stdout=handle, stderr=subprocess.STDOUT, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill, (child.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    return Child(child.returncode, seconds, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def digests(directory: Path) -> dict[str, str]:
    """SHA-256 of each output file, except the manifest, which holds a wall time."""
    if not directory.is_dir():
        return {}
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.is_file() and path.name != "manifest.json"
    }


def run_pass(workload, pass_dir: Path, inputs: Path, env: dict[str, str]) -> dict:
    """One closed-loop pass: each op as a fresh process, then the checks."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    ops = []
    started = time.perf_counter()
    for op in workload.ops:
        argv = [sys.executable, "-m", "loopfwm", *op.argv(pass_dir, inputs)]
        child = run_child(argv, env, pass_dir / f"{op.name}.log")
        ops.append({"op": op.name, "metric": op.metric, **child._asdict()})
    elapsed = time.perf_counter() - started
    for op, record in zip(workload.ops, ops):
        out = pass_dir / op.name
        record["problems"], record["wrong"] = workloads.evaluate(op, out, record["exit"])
        record["digests"] = digests(out)
    return {"seconds": elapsed, "ops": ops}


def tail(samples: list[float]) -> tuple[float | None, float | None]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    rank = len(samples) - 10
    if rank < 1:
        return None, None
    return 100.0 * rank / len(samples), sorted(samples)[rank - 1]


def end_to_end(workload, work: Path, inputs: Path, env: dict[str, str], seconds: float) -> dict:
    """Set up, warm up, then timed passes until ``seconds`` would be exceeded."""
    imports = []
    for index in range(SETUP_IMPORTS + 1):  # the first import compiles bytecode
        child = run_child([sys.executable, "-c", "import loopfwm.cli"], env, work / "import.log")
        if child.exit != 0:
            raise RuntimeError(f"import loopfwm.cli exited {child.exit}; see {work / 'import.log'}")
        if index:
            imports.append(child)
    run_pass(workload, work / "pass", inputs, env)
    passes = []
    started = time.perf_counter()
    while not passes or (time.perf_counter() - started) * (1 + 1 / len(passes)) <= seconds:
        passes.append(run_pass(workload, work / "pass", inputs, env))

    samples = [record for one in passes for record in one["ops"]]
    session = [one["seconds"] for one in passes]
    percentile, tail_value = tail(session)
    metrics = {
        "session_s": (statistics.median(session), "s", len(session)),
        "session_tail_s": (tail_value, "s", len(session)),
        "session_cpu_s": (statistics.median(sum(r["cpu_seconds"] for r in one["ops"]) for one in passes), "s", len(passes)),
        "setup_s": (statistics.median(c.seconds for c in imports), "s", len(imports)),
        "peak_rss_mb": (statistics.median(max(r["rss_kib"] for r in one["ops"]) / 1024 for one in passes), "MB", len(passes)),
        "error_rate": (sum(bool(r["problems"]) for r in samples) / len(samples), "ratio", len(samples)),
    }
    for metric in dict.fromkeys(op.metric for op in workload.ops):
        times = [r["seconds"] for r in samples if r["metric"] == metric]
        metrics[metric] = (statistics.median(times), "s", len(times))
    return {
        "metrics": metrics,
        "session_tail_percentile": percentile,
        "setup_imports": [c._asdict() for c in imports],
        "passes": passes,
        "samples": samples,
    }


def traced(workload, work: Path, inputs: Path, env: dict[str, str], seconds: float) -> dict:
    """The ``-X importtime`` breakdown, then the in-process trace in a child."""
    imports = tracing.import_breakdown(env, SETUP_IMPORTS)
    result_file = work / "trace.json"
    argv = [
        sys.executable, str(BENCH_DIR / "tracing.py"), "--workload", workload.name,
        "--work", str(work), "--inputs", str(inputs), "--seconds", str(seconds), "--result", str(result_file),
    ]
    if run_child(argv, env, work / "trace.log").exit != 0:
        raise RuntimeError(f"traced run failed; see {work / 'trace.log'}")
    trace = json.loads(result_file.read_text(encoding="utf-8"))
    per_pass = trace["per_pass"]
    metrics = {name: (statistics.median(values), "s", len(values)) for name, values in imports.items()}
    for name in per_pass[0]:
        unit = "s" if name.endswith("_s") else "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = (statistics.median(p[name] for p in per_pass), unit, len(per_pass))
    overhead = statistics.median(p["seconds"] for p in trace["traced"]) - statistics.median(
        p["seconds"] for p in trace["untraced"]
    )
    metrics["trace.overhead_s"] = (overhead, "s", len(per_pass))
    samples = [record for one in trace["untraced"] + trace["traced"] for record in one["ops"]]
    return {"metrics": metrics, "samples": samples, "spans": trace["last_spans"], "passes": trace["traced"]}


def environment(seed: int) -> dict:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        cpuinfo = []
    models = [line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "pyyaml": metadata.version("PyYAML"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": models[0] if models else platform.processor(),
    }


def digest_changes(workload, passes: list[dict]) -> list[str]:
    """Outputs whose digest moved between passes or differs from the reference."""
    reference = json.loads((BENCH_DIR / "reference_digests.json").read_text(encoding="utf-8")).get(workload.name, {})
    seeded = {op.name for op in workload.ops if op.seeded}
    changes = []
    for index, record in enumerate(passes[-1]["ops"]):
        for name, digest in record["digests"].items():
            key = f"{record['op']}/{name}"
            if any(one["ops"][index]["digests"].get(name) != digest for one in passes):
                changes.append(f"{key}: differs between passes")
            if record["op"] not in seeded and reference.get(key, digest) != digest:
                changes.append(f"{key}: differs from reference")
    return changes


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark the loopfwm command-line tool.")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed; makes the seeded inputs")
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "loopfwm" / "cli.py").is_file():
        print(f"no loopfwm source under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = root / ".bench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    if workload.prepare is not None:
        workload.prepare(inputs, args.seed)
    env = child_env(root)

    measure = traced if args.trace else end_to_end
    try:
        result = measure(workload, work, inputs, env, args.seconds)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    samples = result.pop("samples")
    failures = [f"{r['op']}: {'; '.join(r['problems'])}" for r in samples if r["problems"]]
    result.update(
        environment=environment(args.seed),
        workload=workload.name,
        why=workload.why,
        attempted=len(samples),
        failed=len(failures),
        correct=not any(r["wrong"] for r in samples),
        failures=sorted(set(failures)),
    )
    if not args.trace:
        result["digest_changes"] = digest_changes(workload, result["passes"])
    result_file = work / f"result-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(result, indent=1, default=float), encoding="utf-8")

    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    print(" ".join(f"{key}={value}" for key, value in result["environment"].items()))
    for name, (value, unit, count) in result["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        note = ""
        if name == "session_tail_s":
            note = f", p{result['session_tail_percentile']:.0f}" if value is not None else ", needs >= 11 passes"
        print(f"  {name:28s} {shown:>12s} {unit:6s} (n={count}{note})")
    for line in result["failures"] + result.get("digest_changes", []):
        print(f"  ! {line}")
    print(f"  results in {result_file.relative_to(root)}")

    metrics = result["metrics"]
    last = {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in (metrics if args.trace else END_TO_END)}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"], "metrics": last}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
