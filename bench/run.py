"""Run the repository benchmark.

One workload in this process::

    python3 bench/run.py --workload train-steady --seed 7 --seconds 30 --trace 0

Every workload, each in its own fresh subprocess, one at a time::

    python3 bench/run.py --seed 7            # end-to-end metrics -> bench/out/run.json
    python3 bench/run.py --seed 7 --trace    # per-layer metrics  -> bench/out/trace.json

With ``--trace 0`` a workload measures set-up, warms up, then runs timed
rounds until ``--seconds`` have passed, and reports the end-to-end metrics
of ``BENCHMARK.json``.  With ``--trace 1`` it runs one untimed round, one
round with host-time spans at every layer boundary (``bench/spans.py``), and
one untimed pass with an event tracer and a metrics registry attached, and
reports the per-layer metrics.  Either way the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_RUNS = 7

#: Every workload is single-threaded: BLAS pools pinned to one thread.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

#: What ``setup_s`` times in a fresh interpreter: import the package, build
#: the workload's graphs, build one machine.
SETUP_CODE = """
import sys
sys.path.insert(0, "src")
import repro
from repro.mem.machine import Machine
from repro.mem.platforms import OPTANE_HM
from repro.models.zoo import build_model
for model in sys.argv[1:]:
    build_model(model)
Machine.for_platform(OPTANE_HM)
"""


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def import_repro() -> None:
    """Import the package from this checkout's ``src``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"error: imported repro from {repro.__file__}, not from {SRC}")


def git_state() -> Dict[str, Any]:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def manifest(args, calib_s: float) -> Dict[str, Any]:
    import numpy

    return {
        "schema": "bench-manifest/v1",
        "git": git_state(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host.calib_s": calib_s,
    }


def measure_setup(models) -> List[float]:
    """Set-up times of fresh interpreters, in reference-host seconds."""
    from workloads import CALIB_REF_S, UnitTimer

    env = dict(os.environ, **THREAD_ENV)
    timer = UnitTimer(sample_period=None)
    for _ in range(SETUP_RUNS):
        timer(
            subprocess.run,
            [sys.executable, "-c", SETUP_CODE, *models], cwd=ROOT, env=env, check=True,
        )
    return [u * CALIB_REF_S / c for u, c in zip(timer.unit_s, timer.calib_s)]


def timed_pass(work, seconds: float) -> Dict[str, Any]:
    """End-to-end metrics from untraced rounds."""
    from workloads import CALIB_REF_S, digest

    setup = measure_setup(work.models)
    work.warm_up()
    rounds = []
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        rounds.append(work.run_round())
    first = rounds[0]
    digests = {digest(r.outputs) for r in rounds}
    problems = [] if len(digests) == 1 else [f"rounds disagree: {len(digests)} digests"]
    problems += work.check(first.outputs)
    # Each unit's time over the mean calibration sampled while it ran, then
    # per-unit medians across rounds: host drift cancels, and a burst of
    # noise spoils one unit of one round, not the estimate.
    ratios = [
        [u / c for u, c in zip(r.timer.unit_s, r.timer.calib_s)] for r in rounds
    ]
    reference_s = CALIB_REF_S * sum(statistics.median(unit) for unit in zip(*ratios))
    calib = [c for r in rounds for c in r.timer.calib_s]
    values = {
        "setup_s": (statistics.median(setup), setup),
        "sim_steps_per_host_s": (
            first.steps / reference_s,
            [r.steps / (CALIB_REF_S * sum(row)) for r, row in zip(rounds, ratios)],
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            None,
        ),
    }
    for name, value in work.sim_metrics(first.outputs).items():
        values[name] = (value, None)
    return {
        "values": values,
        "rounds": len(rounds),
        "raw_steps_per_s": [r.steps / sum(r.timer.unit_s) for r in rounds],
        "calib_s": statistics.median(calib),
        "sim_digest": digests.pop() if len(digests) == 1 else None,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": problems,
    }


def traced_pass(work) -> Dict[str, Any]:
    """Per-layer metrics: host spans from one traced round, simulated-side
    numbers from one pass with an event tracer and metrics registry."""
    import spans
    from workloads import UnitTimer, calibrate, digest

    work.warm_up()
    start = time.perf_counter()
    plain = work.run_round(UnitTimer(calibrated=False))
    plain_s = time.perf_counter() - start
    expected = digest(plain.outputs)

    recorder = spans.SpanRecorder()
    boundaries = spans.Boundaries(recorder).install()
    try:
        recorder.open_root()
        traced = work.run_round(UnitTimer(calibrated=False))
        traced_s = recorder.close_root()
    finally:
        boundaries.uninstall()
    self_times = recorder.self_times()

    problems = work.check(plain.outputs)
    if digest(traced.outputs) != expected:
        problems.append("traced round changed the simulated outputs")
    total_self = sum(own for own, _ in self_times.values())
    if abs(total_self - traced_s) > 0.01 * traced_s:
        problems.append(f"self times sum to {total_self!r}s, round took {traced_s!r}s")
    negative = [layer for layer, (own, _) in self_times.items() if own < -1e-6]
    if negative:
        problems.append(f"negative self time (overlapping spans) in {negative}")

    values: Dict[str, Any] = {}
    for layer in spans.LAYERS:
        own, calls = self_times[layer]
        values[f"{layer}.self_s"] = (own, None)
        values[f"{layer}.calls"] = (float(calls), None)
    steps_ms = [1000.0 * s for s in recorder.generator_s]
    values["dnn.executor.step_host_ms.p50"] = (statistics.median(steps_ms), None)
    values["dnn.executor.step_host_ms.p90"] = (
        statistics.quantiles(steps_ms, n=10)[8],
        None,
    )
    values["trace.overhead_ratio"] = (traced_s / plain_s, None)

    sim = work.sim_pass()
    if sim.digest != expected:
        problems.append("attaching a tracer and metrics changed the simulated outputs")
    problems += sim.problems
    for name, value in sim.metrics.items():
        values[name] = (value, None)
    return {
        "values": values,
        "rounds": 1,
        "calib_s": statistics.median(calibrate() for _ in range(5)),
        "sim_digest": expected,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "problems": problems,
        "trace": {
            "round_s": traced_s,
            "untraced_round_s": plain_s,
            f"{spans.ROOT}.self_s": self_times[spans.ROOT][0],
            "boundary_hits": dict(zip(boundaries.names, boundaries.hits)),
            "layer_table": sim.layer_table,
        },
    }


def run_workload(args) -> int:
    """Measure one workload in this process; print metrics, then the result line."""
    os.environ.update(THREAD_ENV)
    spec = load_spec()
    import_repro()
    from workloads import WORKLOADS

    work = WORKLOADS[args.workload](args.seed)
    result = traced_pass(work) if args.trace else timed_pass(work, args.seconds)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        value, samples = result["values"][entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        if samples is not None:
            metrics[entry["name"]]["samples"] = samples

    print(f"{work.name}  seed {args.seed}  rounds {result['rounds']}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6f} {metric['unit']}")
    if "raw_steps_per_s" in result:
        raw = statistics.median(result["raw_steps_per_s"])
        print(f"  {'(unnormalized steps per host second)':<40} {raw:>16.6f} steps/s")
    print(f"  {'(host.calib_s)':<40} {result['calib_s']:>16.6f} s")
    print(f"  {'sim_digest':<40} {result['sim_digest']}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")

    OUT.mkdir(exist_ok=True)
    record = {
        "manifest": manifest(args, result["calib_s"]),
        "workload": work.name,
        "metrics": metrics,
        "sim_digest": result["sim_digest"],
        "rounds": result["rounds"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
    }
    for key in ("raw_steps_per_s", "trace"):
        if key in result:
            record[key] = result[key]
    suffix = ".trace.json" if args.trace else ".json"
    with open(OUT / f"{work.name}{suffix}", "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    correct = not result["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh subprocess, one at a time."""
    spec = load_spec()
    suffix = ".trace.json" if args.trace else ".json"
    workloads: Dict[str, Any] = {}
    status = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        code = subprocess.run(
            [
                sys.executable, str(BENCH / "run.py"),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=ROOT,
        ).returncode
        if code != 0:
            print(f"error: workload {name} exited with {code}", file=sys.stderr)
            status = 1
            continue
        with open(OUT / f"{name}{suffix}") as handle:
            workloads[name] = json.load(handle)
    calib = [w["manifest"]["host.calib_s"] for w in workloads.values()]
    out = OUT / ("trace.json" if args.trace else "run.json")
    OUT.mkdir(exist_ok=True)
    with open(out, "w") as handle:
        json.dump(
            {
                "manifest": manifest(args, statistics.median(calib) if calib else None),
                "workloads": workloads,
            },
            handle,
            indent=1,
            sort_keys=True,
        )
    print(f"wrote {out.relative_to(ROOT)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None, help="timed seconds per workload")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: per-layer metrics from the traced pass",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args)
    names = [entry["name"] for entry in load_spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
