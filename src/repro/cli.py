"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``        — one (model, policy) simulation, metrics printed as a table.
  The run's other views attach to the same run: ``--trace`` exports the
  event trace and prints its per-category summary, ``--critpath`` prints
  the per-step critical-path attribution, and ``--insight`` /
  ``--insight-html`` write the tensor-level insight report (residency,
  heat, ping-pong/thrash analytics, per-tensor stall attribution).
* ``compare``    — every applicable policy on one model (the quickstart).
* ``profile``    — Sentinel's tensor-level dynamic profile of a model.
* ``sweep``      — Sentinel across fast-memory fractions (Figure 10 style).
* ``maxbatch``   — maximum feasible batch per policy on the GPU platform.
* ``experiment`` — regenerate one of the paper's tables/figures by id.
* ``chaos``      — fault-rate sweep under deterministic fault injection.
* ``pressure``   — capacity-pressure survival sweep under the memory governor.
* ``concurrent`` — co-schedule several models on one machine (event engine).
* ``serve``      — open-loop serving with SLO-aware admission and failure
  episodes (retry/backoff, checkpoint/restart, latency percentiles).
* ``bench``      — attribution benchmark + step-time regression gate.
* ``tournament`` — ranked leaderboard over {model x policy x admission
  controller x pressure governor} combos (byte-stable JSON artifact).
* ``models``     — list the model zoo.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.baselines.registry import CPU_ONLY, GPU_ONLY, POLICIES
from repro.baselines.vdnn import UnsupportedModelError
from repro.chaos import ChaosConfig
from repro.harness.report import (
    format_attribution,
    format_counters,
    format_insight,
    format_summary,
    format_table,
    format_trace_summary,
    gib,
    mib,
)
from repro.harness.runner import (
    OOM_ERRORS,
    fast_capacity_for,
    max_batch_size,
    run_policy,
)
from repro.mem.platforms import GPU_HM, OPTANE_HM, Platform
from repro.mem.pressure import PressureConfig
from repro.models.zoo import MODELS

EXPERIMENTS = {
    "obs": "characterization",
    "table3": "table3_models",
    "fig5": "fig5_interval_sweep",
    "fig7": "fig7_speedup",
    "table4": "table4_migrated",
    "fig8": "fig8_large_batch",
    "fig9": "fig9_bandwidth",
    "fig10": "fig10_sensitivity",
    "fig11": "fig11_resnet_scaling",
    "table5": "table5_max_batch",
    "fig12": "fig12_gpu_throughput",
    "fig13": "fig13_breakdown",
    "attrib": "step_attribution",
    "robust": "robustness_degradation",
    "ras": "ras_resilience",
    "survival": "pressure_survival",
    "contention": "multi_tenant_contention",
    "serving": "serving_overload",
}


def _watermarks(text: str):
    """Parse ``--fast-watermarks LOW,HIGH`` (fractions of fast capacity)."""
    try:
        low_text, high_text = text.split(",")
        return float(low_text), float(high_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LOW,HIGH (e.g. 0.75,0.9), got {text!r}"
        )


def _pressure_from(args) -> Optional[PressureConfig]:
    """Build the governor config from ``--fast-watermarks``/``--reserve-frames``.

    With neither flag given this returns ``None`` — the machine is built
    without a governor and the run stays byte-identical to pre-pressure
    builds.
    """
    watermarks = getattr(args, "fast_watermarks", None)
    reserve = getattr(args, "reserve_frames", 0)
    if watermarks is None and not reserve:
        return None
    low, high = watermarks if watermarks is not None else (1.0, 1.0)
    return PressureConfig.watermarks(low, high, reserve_frames=reserve)


def _add_insight_flags(parser) -> None:
    parser.add_argument(
        "--insight",
        metavar="PATH",
        default=None,
        help="write the canonical tensor-insight JSON artifact to PATH "
        "(residency timelines, heat, ping-pong/thrash analytics)",
    )
    parser.add_argument(
        "--insight-html",
        metavar="PATH",
        default=None,
        help="write the self-contained HTML insight report to PATH "
        "(no network, opens in any browser)",
    )


def _insight_from(args):
    """Build an insight collector when either ``--insight`` flag was given.

    Returns ``None`` otherwise — the machine is built without a collector
    and the run stays byte-identical to insight-free builds.
    """
    if not (getattr(args, "insight", None) or getattr(args, "insight_html", None)):
        return None
    from repro.obs import InsightCollector

    return InsightCollector()


def _write_insight_artifacts(args, report) -> None:
    """Write the JSON / HTML artifacts a command's insight flags asked for."""
    if getattr(args, "insight", None):
        from repro.obs import write_insight

        write_insight(report, args.insight)
        print(f"insight: {len(report['tensors'])} tensor episodes -> {args.insight}")
    if getattr(args, "insight_html", None):
        from repro.obs import write_insight_html

        write_insight_html(report, args.insight_html)
        print(f"insight html: {args.insight_html}")


def _write_trace(path: str, events, process_name: str, tids=None) -> None:
    """Write one run's ``--trace``: canonical JSONL for a ``*.jsonl`` path,
    Chrome trace JSON (opens in Perfetto) otherwise."""
    from repro.obs import to_jsonl, write_chrome

    if path.endswith(".jsonl"):
        with open(path, "w") as handle:
            handle.write(to_jsonl(events))
    else:
        write_chrome(events, path, process_name=process_name, tids=tids)
    print(f"trace: {len(events)} events -> {path}")


def _write_combined_trace(path: str, labeled) -> None:
    """Write ``(label, events)`` runs as one Chrome trace, one Perfetto
    process per run that recorded events."""
    import json

    from repro.obs import combine_chrome

    labeled = [(label, events) for label, events in labeled if events]
    with open(path, "w") as handle:
        json.dump(combine_chrome(labeled), handle, sort_keys=True)
    total = sum(len(events) for _, events in labeled)
    print(f"trace: {total} events from {len(labeled)} points -> {path}")


def _add_pressure_flags(parser) -> None:
    parser.add_argument(
        "--fast-watermarks",
        type=_watermarks,
        metavar="LOW,HIGH",
        default=None,
        help="pressure-governor watermarks as fractions of fast capacity "
        "(e.g. 0.75,0.9): reclaim above LOW, refuse background promotions "
        "above HIGH",
    )
    parser.add_argument(
        "--reserve-frames",
        type=int,
        default=0,
        help="fast frames reserved for the urgent demand lane (governor "
        "reserve pool)",
    )


def _add_admission_flags(parser, flag: str = "--admission") -> None:
    """Attach migration-admission controller flags to a subcommand.

    ``flag`` is overridable because ``serve`` already owns ``--admission``
    for its *job* admission policy; there the migration-level flags are
    ``--migration-admission``/``--migration-admission-args``.
    """
    from repro.mem.admission import CONTROLLERS

    parser.add_argument(
        flag,
        choices=sorted(CONTROLLERS),
        default=None,
        dest=flag.lstrip("-").replace("-", "_"),
        help="migration admission controller screening non-urgent "
        "promotions/demotions (unset = no controller, byte-identical "
        "to pre-admission builds)",
    )
    parser.add_argument(
        f"{flag}-args",
        metavar="K=V[,K=V...]",
        default=None,
        dest=flag.lstrip("-").replace("-", "_") + "_args",
        help="controller constructor overrides, e.g. "
        "stall_target=0.05,cooldown=0.1",
    )


def _admission_from(args, attr: str = "admission"):
    """Resolve the admission flags to ``(name, kwargs-or-None)``.

    Raises ``SystemExit`` via argparse error semantics when ``-args`` is
    given without a controller name.
    """
    name = getattr(args, attr, None)
    raw = getattr(args, f"{attr}_args", None)
    if raw and name is None:
        raise SystemExit(
            f"error: --{attr.replace('_', '-')}-args requires "
            f"--{attr.replace('_', '-')}"
        )
    if name is None:
        return None, None
    if not raw:
        return name, None
    from repro.mem.admission import parse_admission_args

    return name, parse_admission_args(raw)


def _ras_from(args):
    """Build the RAS config from ``--ue-rate``/``--ce-rate``/``--scrub-bw``.

    With both rates zero this returns ``None`` — the machine is built
    without a RAS engine and the run stays byte-identical to pre-RAS
    builds.
    """
    ue_rate = getattr(args, "ue_rate", 0.0)
    ce_rate = getattr(args, "ce_rate", 0.0)
    if not ue_rate and not ce_rate:
        return None
    from repro.mem.ras import RASConfig

    return RASConfig(
        seed=getattr(args, "ras_seed", 0),
        ue_rate=ue_rate,
        ce_rate=ce_rate,
        scrub_bandwidth=getattr(args, "scrub_bw", 0.0),
        recovery=getattr(args, "recovery", "remat"),
    )


def _add_ras_flags(parser) -> None:
    parser.add_argument(
        "--ue-rate",
        type=float,
        default=0.0,
        help="uncorrectable-error rate per byte-second of slow-tier "
        "residency (0 = no RAS engine attached)",
    )
    parser.add_argument(
        "--ce-rate",
        type=float,
        default=0.0,
        help="correctable-error rate per byte-second of slow-tier residency",
    )
    parser.add_argument(
        "--scrub-bw",
        type=float,
        default=0.0,
        metavar="BYTES_PER_S",
        help="patrol-scrubber sweep bandwidth (0 disables scrubbing)",
    )
    parser.add_argument(
        "--recovery",
        choices=("none", "refetch", "remat"),
        default="remat",
        help="UE recovery ladder ceiling: none = every UE is fatal to the "
        "run; refetch = re-fetch clean preallocated pages; remat = also "
        "re-run the producer op for lost activations",
    )
    parser.add_argument(
        "--ras-seed",
        type=int,
        default=0,
        help="seed for the deterministic error-injection streams",
    )


def _chaos_from(args) -> Optional[ChaosConfig]:
    """Build the injected-fault config from ``--fault-rate``/``--chaos-seed``.

    A rate of zero returns ``None`` — the machine is built without an
    injector at all, keeping the default path bit-identical to pre-chaos
    builds.
    """
    if not args.fault_rate:
        return None
    return ChaosConfig.uniform(args.fault_rate, seed=args.chaos_seed)


def _platform(name: str) -> Platform:
    if name == "optane":
        return OPTANE_HM
    if name == "gpu":
        return GPU_HM
    raise argparse.ArgumentTypeError(f"unknown platform {name!r} (optane|gpu)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sentinel (HPCA 2021) reproduction on a simulated "
        "heterogeneous-memory machine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one policy on one model")
    run.add_argument("model", choices=sorted(MODELS))
    run.add_argument("policy", choices=sorted(POLICIES))
    run.add_argument("--batch", type=int, default=None)
    run.add_argument("--platform", type=_platform, default=OPTANE_HM)
    run.add_argument(
        "--fast-fraction",
        type=float,
        default=None,
        help="fast memory as a fraction of the model's peak (paper: 0.2)",
    )
    run.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="inject faults at this rate (0 = no injector attached)",
    )
    run.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed for the deterministic fault injector",
    )
    run.add_argument(
        "--audit",
        action="store_true",
        help="check memory-accounting invariants after every step",
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write the run's event trace to PATH (canonical JSONL for a "
        "*.jsonl path, Chrome JSON for Perfetto otherwise) and print its "
        "per-category summary",
    )
    run.add_argument(
        "--critpath",
        metavar="PATH",
        nargs="?",
        const="",
        default=None,
        help="print the per-step critical-path attribution, its what-ifs and "
        "the last step's critical path; with PATH also write the attribution "
        "as canonical JSON",
    )
    run.add_argument(
        "--bandwidth-scale",
        type=float,
        default=None,
        metavar="K",
        help="with --critpath, also answer the what-if of K-times migration "
        "bandwidth",
    )
    _add_insight_flags(run)
    _add_pressure_flags(run)
    _add_ras_flags(run)
    _add_admission_flags(run)

    compare = sub.add_parser("compare", help="all applicable policies on one model")
    compare.add_argument("model", choices=sorted(MODELS))
    compare.add_argument("--batch", type=int, default=None)
    compare.add_argument("--platform", type=_platform, default=OPTANE_HM)
    compare.add_argument("--fast-fraction", type=float, default=0.2)

    profile = sub.add_parser("profile", help="Sentinel's dynamic profile of a model")
    profile.add_argument("model", choices=sorted(MODELS))
    profile.add_argument("--batch", type=int, default=None)
    profile.add_argument("--top", type=int, default=10, help="hot tensors to list")

    sweep = sub.add_parser("sweep", help="Sentinel vs fast-memory fraction")
    sweep.add_argument("model", choices=sorted(MODELS))
    sweep.add_argument("--batch", type=int, default=None)
    sweep.add_argument(
        "--fractions",
        type=float,
        nargs="+",
        default=(0.2, 0.3, 0.4, 0.6),
    )

    maxbatch = sub.add_parser("maxbatch", help="max feasible batch per GPU policy")
    maxbatch.add_argument("model", choices=sorted(MODELS))
    maxbatch.add_argument(
        "--policies",
        nargs="+",
        default=["fast-only", "vdnn", "autotm", "swapadvisor", "capuchin", "sentinel-gpu"],
        choices=sorted(POLICIES),
    )
    maxbatch.add_argument("--limit", type=int, default=1 << 15)

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure by id"
    )
    experiment.add_argument("which", choices=sorted(EXPERIMENTS))

    chaos = sub.add_parser(
        "chaos", help="fault-rate sweep: throughput degradation per policy"
    )
    chaos.add_argument("model", choices=sorted(MODELS))
    chaos.add_argument(
        "--policies",
        nargs="+",
        default=["sentinel", "ial", "autotm"],
        choices=sorted(POLICIES),
    )
    chaos.add_argument(
        "--fault-rates",
        type=float,
        nargs="+",
        default=[0.0, 0.05, 0.1, 0.2],
    )
    chaos.add_argument("--fast-fraction", type=float, default=0.2)
    chaos.add_argument("--chaos-seed", type=int, default=1234)

    grid = sub.add_parser("grid", help="free-form policy x model sweep")
    grid.add_argument("--policies", nargs="+", default=["slow-only", "ial", "autotm", "sentinel", "fast-only"], choices=sorted(POLICIES))
    grid.add_argument("--models", nargs="+", default=["resnet32", "lstm", "dcgan"], choices=sorted(MODELS))
    grid.add_argument("--fast-fraction", type=float, default=0.2)
    grid.add_argument("--platform", type=_platform, default=OPTANE_HM)
    grid.add_argument("--value", default="step_time", help="RunMetrics field to tabulate")
    grid.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="inject faults at this rate on every grid point",
    )
    grid.add_argument("--chaos-seed", type=int, default=0)
    grid.add_argument(
        "--workers",
        type=int,
        default=1,
        help="grid points to run in parallel (multiprocessing); results are "
        "merged deterministically and byte-identical to --workers 1",
    )
    grid.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="capture every grid point's event trace and write one combined "
        "Chrome trace (one Perfetto process per point)",
    )
    grid.add_argument(
        "--insight",
        metavar="DIR",
        default=None,
        help="collect tensor insight on every grid point and write one "
        "canonical JSON artifact per point into DIR",
    )
    _add_pressure_flags(grid)
    _add_admission_flags(grid)

    pressure = sub.add_parser(
        "pressure",
        help="capacity-pressure survival sweep under the memory governor",
    )
    pressure.add_argument(
        "--models", nargs="+", default=sorted(MODELS), choices=sorted(MODELS)
    )
    pressure.add_argument(
        "--policies",
        nargs="+",
        default=["sentinel", "ial"],
        choices=sorted(POLICIES),
    )
    pressure.add_argument(
        "--fractions",
        type=float,
        nargs="+",
        default=[0.1, 0.05],
        help="fast memory as fractions of each model's peak",
    )
    pressure.add_argument(
        "--fast-watermarks",
        type=_watermarks,
        metavar="LOW,HIGH",
        default=(0.75, 0.9),
    )
    pressure.add_argument("--reserve-frames", type=int, default=32)
    pressure.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write one combined Chrome trace of every point to PATH",
    )

    concurrent = sub.add_parser(
        "concurrent",
        help="co-schedule several models on one machine (event engine)",
    )
    concurrent.add_argument(
        "models", nargs="+", choices=sorted(MODELS), help="one workload per model"
    )
    concurrent.add_argument(
        "--policies",
        nargs="+",
        default=["sentinel"],
        choices=sorted(POLICIES),
        help="one policy per model, or a single policy for all workloads",
    )
    concurrent.add_argument("--platform", type=_platform, default=OPTANE_HM)
    concurrent.add_argument(
        "--fast-fraction",
        type=float,
        default=0.2,
        help="fast memory as a fraction of the workloads' combined peak",
    )
    concurrent.add_argument(
        "--steps", type=int, default=None, help="steady steps per workload"
    )
    concurrent.add_argument(
        "--isolated",
        action="store_true",
        help="also run each workload alone at the same fast capacity and "
        "report the co-scheduling slowdown",
    )
    concurrent.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace (one track per workload) to PATH",
    )

    serve = sub.add_parser(
        "serve",
        help="open-loop serving: Poisson arrivals, SLO-aware admission, "
        "failure episodes (event engine)",
    )
    serve.add_argument(
        "--scenario",
        choices=("steady", "overload", "failure"),
        default="steady",
        help="preset: steady = under capacity; overload = arrivals exceed "
        "service rate (sheds, bounded p99); failure = machine-offline "
        "episodes mid-run (restarts from checkpoints)",
    )
    serve.add_argument("--rate", type=float, default=None, help="arrivals/s (overrides the preset)")
    serve.add_argument("--horizon", type=float, default=None, help="arrival window in seconds")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--slots", type=int, default=2, help="concurrent execution slots")
    serve.add_argument(
        "--admission",
        choices=("fifo", "edf", "watermark"),
        default="edf",
    )
    serve.add_argument("--queue", type=int, default=4, help="admission queue bound")
    serve.add_argument("--timeout", type=float, default=240.0, help="per-attempt timeout (s)")
    serve.add_argument("--max-attempts", type=int, default=3, help="admission attempts incl. the first")
    serve.add_argument("--restart-budget", type=int, default=2, help="failure-episode restarts per job")
    serve.add_argument(
        "--fast-fraction",
        type=float,
        default=0.5,
        help="fast memory as a fraction of (largest template peak x slots)",
    )
    serve.add_argument("--platform", type=_platform, default=OPTANE_HM)
    serve.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace (serve lane + per-job tracks) to PATH",
    )
    serve.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the canonical serve report JSON to PATH",
    )
    _add_insight_flags(serve)
    _add_ras_flags(serve)
    _add_admission_flags(serve, flag="--migration-admission")

    bench = sub.add_parser(
        "bench",
        help="attribution benchmark: write BENCH_*.json and gate on the "
        "committed step-time baseline",
    )
    bench.add_argument(
        "--models",
        nargs="+",
        default=None,
        choices=sorted(MODELS),
        help="models to benchmark (default: the CI smoke set)",
    )
    bench.add_argument("--policy", choices=sorted(POLICIES), default="sentinel")
    bench.add_argument("--fast-fraction", type=float, default=0.2)
    bench.add_argument(
        "--out-dir",
        default="bench-artifacts",
        help="directory for BENCH_attribution.json / BENCH_step_time.json",
    )
    bench.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="committed BENCH_step_time.json to gate against; written on "
        "first run when missing",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="maximum allowed relative growth of median step time (0.05 = 5%%)",
    )
    bench.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from this run instead of gating",
    )

    from repro.mem.admission import CONTROLLERS

    tournament = sub.add_parser(
        "tournament",
        help="rank {model x policy x admission x governor} combos on a "
        "byte-stable leaderboard",
    )
    tournament.add_argument(
        "--models",
        nargs="+",
        default=None,
        choices=sorted(MODELS),
        help="zoo models to run (default: dcgan lstm mobilenet resnet32)",
    )
    tournament.add_argument(
        "--policies",
        nargs="+",
        default=None,
        choices=sorted(POLICIES),
        help="placement policies to rank (default: sentinel ial autotm)",
    )
    tournament.add_argument(
        "--admissions",
        nargs="+",
        default=None,
        choices=sorted(CONTROLLERS),
        help="admission controllers to rank (default: every registered one)",
    )
    tournament.add_argument(
        "--governor",
        choices=("off", "on", "both"),
        default="both",
        help="pressure-governor axis: off/on pins one setting, both runs "
        "the full axis",
    )
    tournament.add_argument(
        "--fast-fraction",
        type=float,
        default=0.2,
        help="fast memory as a fraction of each model's peak",
    )
    tournament.add_argument("--platform", type=_platform, default=OPTANE_HM)
    tournament.add_argument(
        "--workers",
        type=int,
        default=1,
        help="cells to run in parallel (multiprocessing); merged "
        "deterministically, byte-identical to --workers 1",
    )
    tournament.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the canonical tournament artifact JSON to PATH "
        "(byte-identical across reruns)",
    )

    sub.add_parser("models", help="list the model zoo")
    sub.add_parser("features", help="print Table I (design comparison)")
    return parser


# ------------------------------------------------------------------ commands

def _cmd_run(args) -> int:
    if args.bandwidth_scale is not None and args.critpath is None:
        raise SystemExit("error: --bandwidth-scale requires --critpath")
    collector = _insight_from(args)
    tracer = None
    if args.trace or args.critpath is not None or collector is not None:
        from repro.obs import EventTracer

        tracer = EventTracer()
    admission, admission_args = _admission_from(args)
    metrics = run_policy(
        args.policy,
        model=args.model,
        batch_size=args.batch,
        platform=args.platform,
        fast_fraction=args.fast_fraction,
        chaos=_chaos_from(args),
        audit=args.audit,
        tracer=tracer,
        pressure=_pressure_from(args),
        ras=_ras_from(args),
        insight=collector,
        admission=admission,
        admission_args=admission_args,
    )
    print(format_summary(metrics))
    if args.trace:
        print()
        print(
            format_trace_summary(
                tracer.events,
                title=f"{args.model} / {args.policy} (batch {metrics.batch_size}, "
                f"step {metrics.step_time:.4f}s)",
                dropped=tracer.dropped,
            )
        )
        _write_trace(args.trace, tracer.events, f"{args.model}/{args.policy}")
    if args.critpath is None and collector is None:
        return 0
    from repro.obs import TraceTruncatedError, attribute

    try:
        attribution = attribute(tracer.events, dropped=tracer.dropped)
    except TraceTruncatedError as error:
        if args.critpath is not None:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(
            "note: trace window truncated — skipping per-tensor stall "
            "attribution",
            file=sys.stderr,
        )
        attribution = None
    if args.critpath is not None:
        _print_critpath(args, metrics, attribution, tracer.events)
    if collector is not None:
        _print_insight(args, metrics, collector, attribution)
    return 0


def _print_critpath(args, metrics, attribution, events) -> None:
    """``run --critpath``: the attribution table and its what-ifs, the last
    step's critical path, and the attribution JSON when PATH was given."""
    print()
    print(
        format_attribution(
            attribution,
            title=f"{args.model} / {args.policy} (batch {metrics.batch_size}) — "
            "step attribution",
        )
    )
    if args.bandwidth_scale is not None and len(attribution):
        scaled = attribution.what_if_bandwidth_scale(args.bandwidth_scale)
        print(f"what-if {args.bandwidth_scale:g}x bandwidth = {scaled:.4f} s")
    line = _critical_path_line(events)
    if line is not None:
        print(f"\n{line}")
    if args.critpath:
        import json

        payload = {
            "model": args.model,
            "policy": args.policy,
            "steps": [
                {"step": step.step, "duration": step.duration, **step.components()}
                for step in attribution
            ],
            "median_step_time": attribution.median_step_time(),
            "what_if_free_migration": attribution.what_if_free_migration(),
            "what_if_2x_bandwidth": attribution.what_if_bandwidth_scale(2.0),
        }
        with open(args.critpath, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"attribution: {len(attribution)} steps -> {args.critpath}")


def _critical_path_line(events) -> Optional[str]:
    """The last step's critical path, or ``None`` for a trace without steps.

    The executor lays a step's layers down back to back, so the path is
    that layer chain plus one ``boundary`` node for each positive stall
    before the first layer or after the last.  It spans the whole step, and
    no happens-before path inside the step window can be longer.
    """
    from repro.obs import TraceQuery
    from repro.obs.critpath import _layers_within

    query = TraceQuery(events)
    steps = query.spans(cat="step", name="step")
    if not steps:
        return None
    step = steps[-1]
    layers = _layers_within(query.spans(cat="step", name="layer"), step)
    first = layers[0].start if layers else step.end
    last = layers[-1].end if layers else step.end
    boundary = [gap for gap in (first - step.start, step.end - last) if gap > 0.0]
    kinds = (("boundary", boundary), ("layer", [layer.duration for layer in layers]))
    composition = ", ".join(
        f"{kind} {sum(durations):.4f}s" for kind, durations in kinds if durations
    )
    number = int(step.args.get("step", len(steps) - 1))
    return (
        f"critical path (step {number}): {len(boundary) + len(layers)} nodes "
        f"spanning {step.duration:.4f}s — {composition}"
    )


def _print_insight(args, metrics, collector, attribution) -> None:
    """``run --insight``/``--insight-html``: the insight report with the
    run's step stall joined onto its tensors when the trace window is whole,
    printed as text and written as the requested artifacts."""
    from repro.obs import join_stall_attribution

    report = collector.report(
        meta={
            "model": args.model,
            "policy": args.policy,
            "batch_size": metrics.batch_size,
            "step_time": metrics.step_time,
        }
    )
    if attribution is not None:
        join_stall_attribution(report, attribution)
    print()
    print(
        format_insight(
            report,
            title=f"{args.model} / {args.policy} (batch {metrics.batch_size}, "
            f"step {metrics.step_time:.4f}s) — tensor insight",
        )
    )
    _write_insight_artifacts(args, report)


def _cmd_compare(args) -> int:
    gpu = args.platform is GPU_HM
    skip = CPU_ONLY if gpu else GPU_ONLY
    order = [name for name in POLICIES if name not in skip]
    rows = []
    baseline: Optional[float] = None
    for name in order:
        fraction = None if name in ("slow-only", "fast-only") else args.fast_fraction
        try:
            metrics = run_policy(
                name,
                model=args.model,
                batch_size=args.batch,
                platform=args.platform,
                fast_fraction=fraction,
            )
        except UnsupportedModelError:
            rows.append((name, "x", "x", "x"))
            continue
        except OOM_ERRORS:
            # Below the policy's feasible fast-memory size (e.g. under
            # Sentinel's §IV-E lower bound on a residency platform).
            rows.append((name, "oom", "oom", "oom"))
            continue
        if baseline is None:
            baseline = metrics.step_time
        rows.append(
            (
                name,
                f"{metrics.step_time:.4f}",
                f"{baseline / metrics.step_time:.2f}x",
                f"{mib(metrics.migrated_bytes):.0f}",
            )
        )
    print(
        format_table(
            ("policy", "step (s)", "speedup", "migrated MiB"),
            rows,
            title=f"{args.model} on {'GPU' if gpu else 'Optane'} platform, "
            f"fast = {args.fast_fraction:.0%} of peak",
        )
    )
    return 0


def _cmd_profile(args) -> int:
    from repro.core import DynamicProfiler
    from repro.models import build_model

    graph = build_model(args.model, batch_size=args.batch)
    run = DynamicProfiler(OPTANE_HM).run(graph)
    profile = run.profile
    hot = sorted(profile.tensors.values(), key=lambda t: -t.total_touches)
    rows = [
        (t.name, t.nbytes, t.total_touches, "pre" if t.preallocated else t.lifetime_layers)
        for t in hot[: args.top]
    ]
    print(
        format_table(
            ("tensor", "bytes", "accesses", "lifetime (layers)"),
            rows,
            title=f"{graph.name}: hottest tensors "
            f"({len(profile.tensors)} total, {profile.fault_count} faults, "
            f"lower bound {mib(profile.fast_memory_lower_bound()):.0f} MiB)",
        )
    )
    return 0


def _cmd_sweep(args) -> int:
    fast = run_policy("fast-only", model=args.model, batch_size=args.batch)
    rows = []
    for fraction in args.fractions:
        metrics = run_policy(
            "sentinel", model=args.model, batch_size=args.batch, fast_fraction=fraction
        )
        rows.append(
            (
                f"{fraction:.0%}",
                f"{metrics.step_time:.4f}",
                f"{metrics.step_time / fast.step_time:.2f}x",
                f"{mib(metrics.migrated_bytes):.0f}",
            )
        )
    rows.append(("fast-only", f"{fast.step_time:.4f}", "1.00x", "0"))
    print(
        format_table(
            ("fast memory", "step (s)", "vs fast-only", "migrated MiB"),
            rows,
            title=f"Sentinel sensitivity — {args.model}",
        )
    )
    return 0


def _cmd_maxbatch(args) -> int:
    rows = []
    for policy in args.policies:
        try:
            best = max_batch_size(policy, args.model, GPU_HM, limit=args.limit)
            rows.append((policy, best))
        except UnsupportedModelError:
            rows.append((policy, "x"))
    print(
        format_table(
            ("policy", "max batch"),
            rows,
            title=f"{args.model} on {gib(GPU_HM.fast.capacity):.0f} GiB GPU memory",
        )
    )
    return 0


def _cmd_experiment(args) -> int:
    from repro.harness import experiments

    function = getattr(experiments, EXPERIMENTS[args.which])
    result = function()
    print(result["text"])
    return 0


def _cmd_grid(args) -> int:
    from repro.harness.sweeps import sweep

    admission, admission_args = _admission_from(args)
    result = sweep(
        policies=args.policies,
        models=args.models,
        fast_fractions=(args.fast_fraction,),
        platform=args.platform,
        chaos=_chaos_from(args),
        trace=args.trace is not None,
        pressure=_pressure_from(args),
        workers=args.workers,
        insight=args.insight is not None,
        admission=admission,
        admission_args=admission_args,
    )
    print(result.to_table(value=args.value))
    failures = [p for p in result if not p.ok]
    if failures:
        print(
            "\nfailed points: "
            + ", ".join(f"{p.policy}/{p.model} ({p.failure})" for p in failures)
        )
    if args.trace:
        _write_combined_trace(args.trace, [(p.label, p.events) for p in result])
    if args.insight:
        import os

        from repro.obs import write_insight

        os.makedirs(args.insight, exist_ok=True)
        written = 0
        for point in result:
            if point.insight is None:
                continue
            name = point.label.replace("/", "-") + ".json"
            write_insight(point.insight, os.path.join(args.insight, name))
            written += 1
        print(f"insight: {written} artifacts -> {args.insight}/")
    return 0


def _cmd_chaos(args) -> int:
    from repro.harness import experiments

    result = experiments.robustness_degradation(
        model=args.model,
        policies=tuple(args.policies),
        fault_rates=tuple(args.fault_rates),
        fast_fraction=args.fast_fraction,
        chaos_seed=args.chaos_seed,
    )
    print(result["text"])
    totals: dict = {}
    for series in result["records"].values():
        for record in series:
            for key in ("retries", "busy_fallbacks", "aborted_bytes", "faults_dropped"):
                totals[key] = totals.get(key, 0) + record.get(key, 0)
    print()
    print(format_counters(totals, title="injected-fault totals"))
    return 0


def _cmd_pressure(args) -> int:
    from repro.harness import experiments

    result = experiments.pressure_survival(
        models=tuple(args.models),
        policies=tuple(args.policies),
        fast_fractions=tuple(args.fractions),
        watermarks=args.fast_watermarks,
        reserve_frames=args.reserve_frames,
        trace=args.trace is not None,
    )
    print(result["text"])
    totals: dict = {}
    for series in result["records"].values():
        for record in series:
            for key in (
                "spills",
                "spilled_bytes",
                "refused_promotions",
                "reclaims",
                "compaction_moves",
                "compaction_bytes",
            ):
                totals[f"pressure.{key}"] = (
                    totals.get(f"pressure.{key}", 0) + record.get(key, 0)
                )
    print()
    print(format_counters(totals, title="pressure totals"))
    if args.trace:
        _write_combined_trace(args.trace, result["labeled"])
    return 0


def _cmd_concurrent(args) -> int:
    from repro.harness.cluster import WorkloadSpec, run_concurrent
    from repro.models.zoo import build_model

    policies = args.policies
    if len(policies) == 1:
        policies = policies * len(args.models)
    if len(policies) != len(args.models):
        print(
            f"error: {len(args.models)} models but {len(policies)} policies "
            "(give one per model, or one for all)",
            file=sys.stderr,
        )
        return 2
    tracer = None
    if args.trace:
        from repro.obs import EventTracer

        tracer = EventTracer()
    specs = []
    for index, (model, policy) in enumerate(zip(args.models, policies)):
        spec_kwargs = {} if args.steps is None else {"steps": args.steps}
        specs.append(
            WorkloadSpec(
                name=f"{model}-{index}", model=model, policy=policy, **spec_kwargs
            )
        )
    combined_peak = sum(
        build_model(model, scale="small").peak_memory_bytes()
        for model in args.models
    )
    cap = fast_capacity_for(combined_peak, args.fast_fraction, args.platform)
    report = run_concurrent(
        specs, platform=args.platform, fast_capacity=cap, tracer=tracer
    )
    isolated = {}
    if args.isolated:
        for model, policy in zip(args.models, policies):
            if model not in isolated:
                isolated[model] = run_policy(
                    policy, model=model, platform=args.platform, fast_capacity=cap
                ).step_time
    rows = []
    for spec, workload in zip(specs, report.workloads):
        row = [
            workload.name,
            workload.policy,
            str(workload.steps),
            f"{workload.steady_step_time:.4f}",
            f"{workload.steps_per_second:.3f}",
        ]
        if args.isolated:
            iso = isolated[spec.model]
            row.append(
                f"{workload.steady_step_time / iso:.2f}x" if iso > 0 else "-"
            )
        rows.append(tuple(row))
    headers = ["workload", "policy", "steps", "steady step (s)", "steps/s"]
    if args.isolated:
        headers.append("vs isolated")
    print(
        format_table(
            tuple(headers),
            rows,
            title=f"{len(specs)} workloads co-scheduled, fast = "
            f"{args.fast_fraction:.0%} of combined peak "
            f"({mib(cap):.0f} MiB)",
        )
    )
    print(
        f"\nmakespan {report.makespan:.4f}s | aggregate "
        f"{report.aggregate_steps_per_second:.3f} steps/s | fairness "
        f"{report.fairness:.3f} | migrated {mib(report.promoted_bytes + report.demoted_bytes):.0f} MiB"
    )
    delays = ", ".join(
        f"{name} {delay * 1e3:.2f}ms"
        for name, delay in sorted(report.channel_queue_delay.items())
    )
    print(f"mean channel queueing delay: {delays}")
    if tracer is not None:
        _write_trace(args.trace, tracer.events, "+".join(args.models))
    return 0


#: Serving scenario presets: (rate, horizon, episode config kwargs).
SERVE_SCENARIOS = {
    "steady": (0.2, 30.0, None),
    "overload": (1.0, 30.0, None),
    "failure": (0.3, 40.0, {"machine_mtbf": 6.0, "machine_mttr": 2.0}),
}


def _cmd_serve(args) -> int:
    from repro.chaos import EpisodeConfig
    from repro.harness.report import format_serve
    from repro.serve import SERVE_MIX, PoissonArrivals, ServeConfig, Server

    preset_rate, preset_horizon, episode_kwargs = SERVE_SCENARIOS[args.scenario]
    rate = args.rate if args.rate is not None else preset_rate
    horizon = args.horizon if args.horizon is not None else preset_horizon
    episodes = None
    if episode_kwargs is not None:
        episodes = EpisodeConfig(
            seed=args.seed, horizon=horizon, **episode_kwargs
        )
    tracer = None
    if args.trace:
        from repro.obs import EventTracer

        tracer = EventTracer()
    config = ServeConfig(
        seed=args.seed,
        slots=args.slots,
        admission=args.admission,
        queue_limit=args.queue,
        timeout=args.timeout,
        max_attempts=args.max_attempts,
        restart_budget=args.restart_budget,
        episodes=episodes,
    )
    collector = _insight_from(args)
    migration_admission, migration_admission_args = _admission_from(
        args, attr="migration_admission"
    )
    server = Server(
        PoissonArrivals(
            rate=rate, horizon=horizon, templates=SERVE_MIX, seed=args.seed
        ),
        config,
        platform=args.platform,
        fast_fraction=args.fast_fraction,
        tracer=tracer,
        ras=_ras_from(args),
        insight=collector,
        migration_admission=migration_admission,
        migration_admission_args=migration_admission_args,
    )
    report = server.run()
    print(
        format_serve(
            report,
            title=f"serving — {args.scenario} scenario, rate {rate:g}/s, "
            f"{args.admission} admission, seed {args.seed}",
        )
    )
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(report.to_json(indent=2))
            handle.write("\n")
        print(f"report: {args.json}")
    if tracer is not None:
        events = tracer.events
        if collector is not None:
            # Bounded retention: keep machine-level tracks plus the
            # reservoir-sampled jobs only.
            events = collector.retained_events(events)
        _write_trace(args.trace, events, "serve", tids=server.job_tids())
    if collector is not None:
        _write_insight_artifacts(
            args,
            collector.report(
                meta={"scenario": args.scenario, "seed": args.seed}
            ),
        )
    return 0


def _cmd_tournament(args) -> int:
    from repro.harness.tournament import (
        DEFAULT_ADMISSIONS,
        DEFAULT_MODELS,
        DEFAULT_POLICIES,
        format_leaderboard,
        run_tournament,
        tournament_json,
    )

    governors = {"off": (False,), "on": (True,), "both": (False, True)}
    result = run_tournament(
        models=tuple(args.models) if args.models else DEFAULT_MODELS,
        policies=tuple(args.policies) if args.policies else DEFAULT_POLICIES,
        admissions=(
            tuple(args.admissions) if args.admissions else DEFAULT_ADMISSIONS
        ),
        governors=governors[args.governor],
        fast_fraction=args.fast_fraction,
        platform=args.platform,
        workers=args.workers,
    )
    print(format_leaderboard(result))
    failures = [
        cell for cell in result["cells"] if cell.get("failure") is not None
    ]
    if failures:
        print(
            "\nfailed cells: "
            + ", ".join(
                f"{c['policy']}/{c['model']} ({c['failure']})" for c in failures
            )
        )
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(tournament_json(result))
        print(f"artifact: {args.json}")
    return 0


def _cmd_bench(args) -> int:
    from pathlib import Path

    from repro.harness import bench

    models = tuple(args.models) if args.models else bench.DEFAULT_BENCH_MODELS
    payload = bench.attribution_benchmark(
        models=models, policy=args.policy, fast_fraction=args.fast_fraction
    )
    gate = bench.step_time_payload(payload)
    out_dir = Path(args.out_dir)
    bench.write_bench(payload, out_dir / "BENCH_attribution.json")
    bench.write_bench(gate, out_dir / "BENCH_step_time.json")
    rows = [
        (
            model,
            f"{entry['median_step_time']:.4f}",
            f"{entry['what_if_free_migration']:.4f}",
            f"{entry['what_if_2x_bandwidth']:.4f}",
        )
        for model, entry in sorted(payload["models"].items())
    ]
    print(
        format_table(
            ("model", "median step (s)", "free migration", "2x bandwidth"),
            rows,
            title=f"attribution benchmark — {args.policy}, "
            f"fast = {args.fast_fraction:.0%} of peak",
        )
    )
    print(f"artifacts: {out_dir / 'BENCH_attribution.json'}, "
          f"{out_dir / 'BENCH_step_time.json'}")
    status = 0
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
        baseline = bench.load_bench(baseline_path)
        if baseline is None or args.update_baseline:
            bench.write_bench(gate, baseline_path)
            verb = "updated" if baseline is not None else "committed (first run)"
            print(f"baseline {verb}: {baseline_path}")
        else:
            problems = bench.check_regression(
                baseline, gate, threshold=args.threshold
            )
            if problems:
                for problem in problems:
                    print(f"REGRESSION: {problem}", file=sys.stderr)
                status = 1
            else:
                print(
                    f"benchmark gate passed: no model regressed more than "
                    f"{args.threshold:.0%} vs {baseline_path}"
                )
    return status


def _cmd_features(args) -> int:
    from repro.baselines.features import feature_table

    print(feature_table())
    return 0


def _cmd_models(args) -> int:
    rows = [
        (spec.name, spec.small_batch, spec.large_batch, spec.description)
        for spec in MODELS.values()
    ]
    print(format_table(("model", "batch(S)", "batch(L)", "description"), rows))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "profile": _cmd_profile,
        "sweep": _cmd_sweep,
        "maxbatch": _cmd_maxbatch,
        "experiment": _cmd_experiment,
        "models": _cmd_models,
        "features": _cmd_features,
        "grid": _cmd_grid,
        "chaos": _cmd_chaos,
        "pressure": _cmd_pressure,
        "concurrent": _cmd_concurrent,
        "serve": _cmd_serve,
        "bench": _cmd_bench,
        "tournament": _cmd_tournament,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
