"""One entry point per paper artifact (Figures 5-13, Tables III-V, Obs. 1-3).

Each function runs the relevant simulations and returns a plain dict of
rows/series plus a pre-rendered ``text`` block printing the same quantities
the paper reports.  The benchmark suite under ``benchmarks/`` is a thin
wrapper over these, so experiments are equally usable from a notebook, a
script, or pytest.

Absolute numbers come from the simulated platforms and are not expected to
match the authors' testbed; the *shapes* (who wins, by roughly what factor,
where crossovers fall) are the reproduction target.  EXPERIMENTS.md records
paper-vs-measured for every entry here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.simple import FirstTouchNUMAPolicy
from repro.baselines.vdnn import UnsupportedModelError
from repro.chaos import ChaosConfig
from repro.core.profiler import DynamicProfiler
from repro.core.runtime import SentinelConfig
from repro.dnn.executor import Executor
from repro.harness.report import format_attribution, format_series, format_table, gib, mib
from repro.harness.runner import (
    EXPERIMENT_WARMUP_STEPS,
    RunMetrics,
    fast_capacity_for,
    max_batch_size,
    run_policy,
)
from repro.harness.sweeps import point_seed, pooled_map, sweep
from repro.mem.machine import Machine
from repro.mem.platforms import GPU_HM, OPTANE_HM
from repro.mem.pressure import PressureConfig
from repro.mem.ras import RASConfig
from repro.models.zoo import MODELS, build_model

#: CPU evaluation sets (paper §VII-B): small batches for Figure 7/10,
#: large batches for Figure 8.
CPU_SMALL_MODELS = ("resnet32", "bert-base", "lstm", "mobilenet", "dcgan")
CPU_LARGE_MODELS = ("resnet200", "bert-large", "lstm", "mobilenet", "dcgan")

#: Fast-memory size for the large-batch CPU runs (Figure 8): a fixed DRAM
#: that the big models' peaks exceed and LSTM's does not, mirroring the
#: paper's fixed-DRAM machine.
FIG8_DRAM_BYTES = 8 * 1024**3

#: GPU evaluation batch triples (Figure 12): smallest fits comfortably in
#: the 16 GB device, the largest exceeds it.
GPU_BATCHES: Dict[str, Tuple[int, int, int]] = {
    "resnet200": (16, 32, 48),
    "bert-large": (8, 16, 24),
    "lstm": (4096, 8192, 12288),
    "mobilenet": (128, 256, 512),
    "dcgan": (1024, 2048, 4096),
}

GPU_MODELS = tuple(GPU_BATCHES)

SENTINEL_CPU = "sentinel"
SENTINEL_GPU = "sentinel-gpu"


def _cfg(**overrides) -> SentinelConfig:
    return SentinelConfig(warmup_steps=EXPERIMENT_WARMUP_STEPS, **overrides)


# ------------------------------------------------------- pooled experiments

#: Marker for grid points whose policy cannot run the model (Table V /
#: Figure 12 record these as misses rather than failing the experiment).
_UNSUPPORTED = "__unsupported__"


def _run_policy_task(kwargs: Dict) -> object:
    """One :func:`run_policy` call; unsupported combos become a marker."""
    try:
        return run_policy(**kwargs)
    except UnsupportedModelError:
        return _UNSUPPORTED


def _max_batch_task(kwargs: Dict) -> object:
    """One :func:`max_batch_size` probe; unsupported combos become a marker."""
    try:
        return max_batch_size(**kwargs)
    except UnsupportedModelError:
        return _UNSUPPORTED


# --------------------------------------------------------------------- E1

def characterization(model: str = "resnet32", batch_size: Optional[int] = None) -> Dict:
    """Observations 1-3 (§III-B): tensor population, hot/cold split, and
    page-level false sharing, measured by the dynamic profiler."""
    graph = build_model(model, batch_size=batch_size)
    profiling = DynamicProfiler(OPTANE_HM).run(graph)
    profile = profiling.profile
    tensors = list(profile.tensors.values())
    page_size = profile.page_size

    # Observation 1: short-lived and small tensors.
    short = [t for t in tensors if t.short_lived]
    small_short = [t for t in short if t.nbytes < page_size]
    short_fraction = len(short) / len(tensors)
    small_of_short = len(small_short) / max(1, len(short))
    peak_short_bytes = max(profile.layer_short_lived_bytes)

    # Observation 2: hot/cold distribution by access count.
    cold = [t for t in tensors if t.total_touches < 10]
    hot = [t for t in tensors if t.total_touches > 100]
    total_bytes = sum(t.nbytes for t in tensors)
    cold_bytes = sum(t.nbytes for t in cold)
    hot_bytes = sum(t.nbytes for t in hot)

    # Observation 3: page-level vs tensor-level classification.  Replay the
    # profiling step on the packed (TensorFlow-default) allocator and
    # classify *runs* by per-page access count: bytes that look hot at page
    # level but whose tensors are cold reveal false sharing.
    false_sharing = _page_level_false_sharing(graph, threshold=10)

    rows = [
        ("tensors", len(tensors)),
        ("short-lived fraction", f"{short_fraction:.1%}"),
        ("small among short-lived", f"{small_of_short:.1%}"),
        ("peak short-lived MiB", f"{mib(peak_short_bytes):.1f}"),
        ("cold (<10 accesses) tensors", f"{len(cold) / len(tensors):.1%}"),
        ("cold tensor bytes", f"{mib(cold_bytes):.1f} MiB ({cold_bytes / total_bytes:.1%})"),
        ("hot (>100 accesses) tensors", len(hot)),
        ("hot tensor bytes", f"{mib(hot_bytes):.2f} MiB ({hot_bytes / total_bytes:.2%})"),
        ("cold bytes at tensor level", f"{mib(false_sharing['tensor_cold_bytes']):.1f} MiB"),
        ("cold bytes at page level", f"{mib(false_sharing['page_cold_bytes']):.1f} MiB"),
        ("bytes misclassified hot by pages", f"{mib(false_sharing['misclassified_bytes']):.1f} MiB"),
        ("profiling faults", profile.fault_count),
        ("profiling memory overhead", f"{profile.memory_overhead:.2%}"),
    ]
    text = format_table(
        ("quantity", "value"), rows, title=f"Characterization — {graph.name}"
    )
    return {
        "model": graph.name,
        "short_fraction": short_fraction,
        "small_of_short": small_of_short,
        "peak_short_bytes": peak_short_bytes,
        "cold_fraction": len(cold) / len(tensors),
        "cold_bytes": cold_bytes,
        "hot_count": len(hot),
        "hot_bytes": hot_bytes,
        "false_sharing": false_sharing,
        "profile": profile,
        "text": text,
    }


def _page_level_false_sharing(graph, threshold: int) -> Dict[str, int]:
    """Bytes cold at tensor level vs at page level (Observation 3).

    Page-level profiling is replayed on the TensorFlow-default arena
    allocator, where false sharing has both a spatial dimension (small
    tensors of different hotness packed into shared slabs) and a temporal
    one (page counters accumulate across successive chunk tenants).  The
    first-touch policy runs on that arena; the tier a page lands on does
    not change its access count.  The bytes the page-level view counts as
    hot while their tensors are cold are exactly the fast memory a
    page-guided manager would waste.
    """
    machine = Machine(OPTANE_HM)
    executor = Executor(graph, machine, FirstTouchNUMAPolicy())
    machine.page_table.poison_all()
    executor.run_step()  # poisoning also applies to runs mapped mid-step
    for run in machine.page_table.entries():
        run.poisoned = True
        run.reset_counts()
    executor.run_step()  # the measured step, on a warmed arena

    page_cold_bytes = 0
    page_total_bytes = 0
    for run in machine.page_table.entries():
        nbytes = run.npages * machine.page_size
        per_page = run.accesses / max(1, run.npages)
        page_total_bytes += nbytes
        if per_page < threshold:
            page_cold_bytes += nbytes

    # Tensor-level cold bytes from a clean page-aligned profile.
    profile = DynamicProfiler(OPTANE_HM).run(graph).profile
    tensor_cold_bytes = sum(
        t.nbytes for t in profile.tensors.values() if t.total_touches < threshold
    )
    return {
        "tensor_cold_bytes": tensor_cold_bytes,
        "page_cold_bytes": page_cold_bytes,
        "misclassified_bytes": max(0, tensor_cold_bytes - page_cold_bytes),
        "page_total_bytes": page_total_bytes,
    }


# --------------------------------------------------------------------- E2

def table3_models(models: Sequence[str] = CPU_SMALL_MODELS, workers: int = 1) -> Dict:
    """Table III: model configurations and Sentinel's overhead accounting.

    ``workers > 1`` fans the per-model runs over a process pool via
    :func:`~repro.harness.sweeps.pooled_map` — byte-identical to serial.
    """
    results = pooled_map(
        _run_policy_task,
        [
            {"policy_name": SENTINEL_CPU, "model": name, "fast_fraction": 0.2}
            for name in models
        ],
        workers,
    )
    rows = []
    records = []
    for name, metrics in zip(models, results):
        spec = MODELS[name]
        graph = spec.build(scale="small")
        peak = graph.peak_memory_bytes()
        slowdown = metrics.extras.get("profiling_step_time", 0.0) / metrics.step_time
        record = {
            "model": name,
            "small_batch": spec.small_batch,
            "large_batch": spec.large_batch,
            "peak_bytes": peak,
            "tensors": len(graph.tensors),
            "layers": graph.num_layers,
            "profiling_steps": metrics.extras.get("profiling_steps", 0.0),
            "trial_steps": metrics.extras.get("trial_steps", 0.0),
            "memory_overhead": metrics.extras.get("memory_overhead", 0.0),
            "profiling_slowdown": slowdown,
        }
        records.append(record)
        rows.append(
            (
                name,
                spec.small_batch,
                spec.large_batch,
                f"{gib(peak):.2f}",
                record["tensors"],
                int(record["profiling_steps"] + record["trial_steps"]),
                f"{record['memory_overhead']:.2%}",
                f"{slowdown:.1f}x",
            )
        )
    text = format_table(
        (
            "model",
            "batch(S)",
            "batch(L)",
            "peak GiB",
            "tensors",
            "overhead steps",
            "mem overhead",
            "profiling slowdown",
        ),
        rows,
        title="Table III — models and Sentinel overheads",
    )
    return {"records": records, "text": text}


# --------------------------------------------------------------------- E3

def fig5_interval_sweep(
    model: str = "resnet32",
    fast_fraction: float = 0.2,
    lengths: Sequence[int] = tuple(range(1, 13)),
    workers: int = 1,
) -> Dict:
    """Figure 5: step time as a function of the migration interval length.

    ``workers > 1`` fans the per-length runs over a process pool via
    :func:`~repro.harness.sweeps.pooled_map` — byte-identical to serial.
    """
    results = pooled_map(
        _run_policy_task,
        [
            {
                "policy_name": SENTINEL_CPU,
                "model": model,
                "fast_fraction": fast_fraction,
                "sentinel_config": _cfg(fixed_interval_length=length),
            }
            for length in lengths
        ],
        workers,
    )
    points: List[Tuple[int, float]] = [
        (length, metrics.step_time) for length, metrics in zip(lengths, results)
    ]
    best = min(points, key=lambda p: p[1])
    worst = max(points, key=lambda p: p[1])
    variance = worst[1] / best[1] - 1.0
    text = format_series(
        f"Figure 5 — {model} step time vs interval length "
        f"(best MIL={best[0]}, {variance:.0%} spread)",
        points,
        unit="s",
    )
    return {"points": points, "best": best, "variance": variance, "text": text}


# --------------------------------------------------------------------- E4

def fig7_speedup(
    models: Sequence[str] = CPU_SMALL_MODELS,
    fast_fraction: float = 0.2,
    workers: int = 1,
) -> Dict:
    """Figure 7: IAL/AutoTM/Sentinel speedup over slow-only at 20% fast.

    The grid runs through :func:`repro.harness.sweeps.sweep`, so
    ``workers > 1`` fans the (model, policy) points over a process pool;
    every point is an isolated simulation merged back in enumeration
    order, so the result is byte-identical to ``workers=1``.
    """
    grid = sweep(
        ("slow-only", "fast-only", "ial", "autotm", SENTINEL_CPU),
        models,
        fast_fractions=(fast_fraction,),
        workers=workers,
    )

    def metrics_of(name: str, policy: str) -> RunMetrics:
        return grid.where(model=name, policy=policy)[0].metrics

    rows = []
    records = {}
    for name in models:
        slow = metrics_of(name, "slow-only")
        fast = metrics_of(name, "fast-only")
        row = {"model": name, "slow_time": slow.step_time, "fast_time": fast.step_time}
        for policy in ("ial", "autotm", SENTINEL_CPU):
            row[policy] = metrics_of(name, policy).step_time
        records[name] = row
        rows.append(
            (
                name,
                f"{slow.step_time / row['ial']:.2f}",
                f"{slow.step_time / row['autotm']:.2f}",
                f"{slow.step_time / row[SENTINEL_CPU]:.2f}",
                f"{slow.step_time / fast.step_time:.2f}",
            )
        )
    text = format_table(
        ("model", "IAL", "AutoTM", "Sentinel", "fast-only (ceiling)"),
        rows,
        title="Figure 7 — speedup over slow-only, fast = 20% of peak",
    )
    return {"records": records, "text": text}


# --------------------------------------------------------------------- E5

def table4_migrated(
    models: Sequence[str] = CPU_SMALL_MODELS,
    fast_fraction: float = 0.2,
    workers: int = 1,
) -> Dict:
    """Table IV: migrated bytes per training step per policy.

    ``workers > 1`` fans the (model, policy) grid over a process pool via
    :func:`~repro.harness.sweeps.pooled_map` — byte-identical to serial.
    """
    policies = ("ial", "autotm", SENTINEL_CPU)
    results = pooled_map(
        _run_policy_task,
        [
            {"policy_name": policy, "model": name, "fast_fraction": fast_fraction}
            for name in models
            for policy in policies
        ],
        workers,
    )
    rows = []
    records = {}
    grid = iter(results)
    for name in models:
        row = {policy: next(grid).migrated_bytes for policy in policies}
        records[name] = row
        rows.append(
            (
                name,
                f"{mib(row['ial']):.0f}",
                f"{mib(row['autotm']):.0f}",
                f"{mib(row[SENTINEL_CPU]):.0f}",
            )
        )
    text = format_table(
        ("model", "IAL MiB", "AutoTM MiB", "Sentinel MiB"),
        rows,
        title="Table IV — migrated data per training step",
    )
    return {"records": records, "text": text}


# --------------------------------------------------------------------- E6

def fig8_large_batch(
    models: Sequence[str] = CPU_LARGE_MODELS, workers: int = 1
) -> Dict:
    """Figure 8: large-batch training, normalized by first-touch NUMA.

    ``workers > 1`` fans the (model, policy) grid over a process pool via
    :func:`~repro.harness.sweeps.pooled_map` — byte-identical to serial.
    """
    policies = ("first-touch", "memory-mode", "autotm", SENTINEL_CPU)
    results = pooled_map(
        _run_policy_task,
        [
            {
                "policy_name": policy,
                "model": name,
                "scale": "large",
                "fast_capacity": FIG8_DRAM_BYTES,
            }
            for name in models
            for policy in policies
        ],
        workers,
    )
    rows = []
    records = {}
    grid = iter(results)
    for name in models:
        graph_peak = build_model(name, scale="large").peak_memory_bytes()
        row = {"peak_bytes": graph_peak}
        for policy in policies:
            row[policy] = next(grid).step_time
        records[name] = row
        base = row["first-touch"]
        rows.append(
            (
                name,
                f"{gib(graph_peak):.1f}",
                "1.00",
                f"{base / row['memory-mode']:.2f}",
                f"{base / row['autotm']:.2f}",
                f"{base / row[SENTINEL_CPU]:.2f}",
            )
        )
    text = format_table(
        ("model", "peak GiB", "first-touch", "memory-mode", "autotm", "sentinel"),
        rows,
        title=f"Figure 8 — large batches, DRAM = {gib(FIG8_DRAM_BYTES):.0f} GiB, "
        "normalized by first-touch",
    )
    return {"records": records, "text": text}


# --------------------------------------------------------------------- E7

def fig9_bandwidth(model: str = "resnet32", fast_fraction: float = 0.2) -> Dict:
    """Figure 9: fast/slow-memory traffic during training, IAL vs Sentinel."""
    records = {}
    for policy in ("ial", SENTINEL_CPU):
        metrics = run_policy(policy, model=model, fast_fraction=fast_fraction)
        records[policy] = {
            "bytes_fast": metrics.bytes_fast,
            "bytes_slow": metrics.bytes_slow,
            "step_time": metrics.step_time,
            "fast_bw": metrics.bytes_fast / metrics.step_time,
            "slow_bw": metrics.bytes_slow / metrics.step_time,
        }
    ratio_fast = records[SENTINEL_CPU]["fast_bw"] / max(1.0, records["ial"]["fast_bw"])
    rows = [
        (
            policy,
            f"{records[policy]['fast_bw'] / 1e9:.1f}",
            f"{records[policy]['slow_bw'] / 1e9:.1f}",
        )
        for policy in records
    ]
    text = format_table(
        ("policy", "fast GB/s", "slow GB/s"),
        rows,
        title=f"Figure 9 — {model} average memory bandwidth "
        f"(Sentinel/IAL fast-traffic ratio {ratio_fast:.1f}x)",
    )
    return {"records": records, "fast_ratio": ratio_fast, "text": text}


# --------------------------------------------------------------------- E8

def fig10_sensitivity(
    models: Sequence[str] = CPU_SMALL_MODELS,
    fractions: Sequence[float] = (0.2, 0.3, 0.4, 0.6),
    workers: int = 1,
) -> Dict:
    """Figure 10: Sentinel performance vs fast-memory size.

    Runs through :func:`repro.harness.sweeps.sweep`, so ``workers > 1``
    parallelizes the (model, fraction) grid byte-identically.
    """
    grid = sweep(
        ("fast-only", SENTINEL_CPU),
        models,
        fast_fractions=tuple(fractions),
        workers=workers,
    )
    records: Dict[str, List[Tuple[float, float]]] = {}
    rows = []
    for name in models:
        fast = grid.where(model=name, policy="fast-only")[0].metrics
        series = []
        cells = [name]
        for fraction in fractions:
            metrics = grid.where(
                model=name, policy=SENTINEL_CPU, fast_fraction=fraction
            )[0].metrics
            relative = metrics.step_time / fast.step_time
            series.append((fraction, relative))
            cells.append(f"{relative:.2f}")
        records[name] = series
        rows.append(tuple(cells))
    text = format_table(
        ("model",) + tuple(f"{f:.0%}" for f in fractions),
        rows,
        title="Figure 10 — Sentinel step time relative to fast-only vs "
        "fast-memory size (fraction of peak)",
    )
    return {"records": records, "fractions": tuple(fractions), "text": text}


# --------------------------------------------------------------------- E9

def _fig11_depth_task(spec: Tuple[int, int, float]) -> Dict:
    """One Figure-11 depth: the whole binary search for one ResNet variant.

    The search is sequential by nature (each probe depends on the last),
    so the pooled mode parallelizes across depths, not within one.
    """
    from repro.models.resnet import build_resnet

    depth, batch_size, tolerance = spec
    graph = build_resnet(depth, batch_size)
    peak = graph.peak_memory_bytes()
    fast = run_policy("fast-only", graph=build_resnet(depth, batch_size))
    target = fast.step_time * tolerance

    def ok(fraction: float) -> bool:
        metrics = run_policy(
            SENTINEL_CPU,
            graph=build_resnet(depth, batch_size),
            fast_fraction=fraction,
        )
        return metrics.step_time <= target

    low, high = 0.05, 1.0
    if ok(low):
        high = low
    else:
        while high - low > 0.05:
            mid = (low + high) / 2
            if ok(mid):
                high = mid
            else:
                low = mid
    return {
        "depth": depth,
        "peak_bytes": peak,
        "min_fraction": high,
        "min_fast_bytes": int(peak * high),
    }


def fig11_resnet_scaling(
    depths: Sequence[int] = (20, 32, 44, 56, 110),
    batch_size: int = 1024,
    tolerance: float = 1.10,
    workers: int = 1,
) -> Dict:
    """Figure 11: minimum fast memory for fast-only-parity vs ResNet depth.

    ``workers > 1`` fans the per-depth searches over a process pool via
    :func:`~repro.harness.sweeps.pooled_map` — byte-identical to serial.
    """
    found = pooled_map(
        _fig11_depth_task,
        [(depth, batch_size, tolerance) for depth in depths],
        workers,
    )
    rows = []
    records = []
    for point in found:
        peak = point["peak_bytes"]
        min_fraction = point["min_fraction"]
        records.append(
            {
                "depth": point["depth"],
                "peak_bytes": peak,
                "min_fast_bytes": point["min_fast_bytes"],
            }
        )
        rows.append(
            (f"resnet{point['depth']}", f"{gib(peak):.2f}",
             f"{gib(peak * min_fraction):.2f}", f"{min_fraction:.0%}")
        )
    text = format_table(
        ("model", "peak GiB", "min fast GiB", "fraction"),
        rows,
        title="Figure 11 — minimum fast memory for parity with fast-only",
    )
    return {"records": records, "text": text}


# -------------------------------------------------------------------- E10

def table5_max_batch(models: Sequence[str] = GPU_MODELS, workers: int = 1) -> Dict:
    """Table V: maximum trainable batch size per policy on the GPU platform.

    ``workers > 1`` fans the (model, policy) probes over a process pool
    via :func:`~repro.harness.sweeps.pooled_map` — byte-identical to serial.
    """
    policies = ("fast-only", "vdnn", "autotm", "swapadvisor", "capuchin", SENTINEL_GPU)
    labels = {
        "fast-only": "TensorFlow",
        "vdnn": "vDNN",
        "autotm": "AutoTM",
        "swapadvisor": "SwapAdvisor",
        "capuchin": "Capuchin",
        SENTINEL_GPU: "Sentinel-GPU",
    }
    results = pooled_map(
        _max_batch_task,
        [
            {
                "policy_name": policy,
                "model": name,
                "platform": GPU_HM,
                "sentinel_config": _cfg(),
            }
            for name in models
            for policy in policies
        ],
        workers,
    )
    rows = []
    records: Dict[str, Dict[str, object]] = {}
    grid = iter(results)
    for name in models:
        row: Dict[str, object] = {}
        cells = [name]
        for policy in policies:
            batch = next(grid)
            if batch == _UNSUPPORTED:
                row[policy] = None
                cells.append("x")
            else:
                row[policy] = batch
                cells.append(str(batch))
        records[name] = row
        rows.append(tuple(cells))
    text = format_table(
        ("model",) + tuple(labels[p] for p in policies),
        rows,
        title="Table V — maximum batch size on 16 GB GPU memory",
    )
    return {"records": records, "text": text}


# -------------------------------------------------------------------- E11

def fig12_gpu_throughput(
    models: Sequence[str] = GPU_MODELS,
    batches: Optional[Dict[str, Tuple[int, ...]]] = None,
    workers: int = 1,
) -> Dict:
    """Figure 12: training throughput on GPU, normalized by Unified Memory.

    ``workers > 1`` fans the (model, batch, policy) grid over a process
    pool via :func:`~repro.harness.sweeps.pooled_map` — byte-identical to serial.
    """
    batches = batches if batches is not None else GPU_BATCHES
    policies = ("unified-memory", "vdnn", "autotm", "swapadvisor", "capuchin", SENTINEL_GPU)
    results = pooled_map(
        _run_policy_task,
        [
            {
                "policy_name": policy,
                "model": name,
                "batch_size": batch,
                "platform": GPU_HM,
                "sentinel_config": _cfg(),
            }
            for name in models
            for batch in batches[name]
            for policy in policies
        ],
        workers,
    )
    rows = []
    records: Dict[Tuple[str, int], Dict[str, Optional[float]]] = {}
    grid = iter(results)
    for name in models:
        for batch in batches[name]:
            row: Dict[str, Optional[float]] = {}
            for policy in policies:
                metrics = next(grid)
                row[policy] = (
                    None if metrics == _UNSUPPORTED else metrics.throughput
                )
            records[(name, batch)] = row
            base = row["unified-memory"] or 1.0
            rows.append(
                (f"{name}@{batch}",)
                + tuple(
                    "x" if row[p] is None else f"{row[p] / base:.2f}" for p in policies
                )
            )
    text = format_table(
        ("workload", "UM", "vDNN", "AutoTM", "SwapAdvisor", "Capuchin", "Sentinel-GPU"),
        rows,
        title="Figure 12 — GPU training throughput normalized by Unified Memory",
    )
    return {"records": records, "text": text}


# -------------------------------------------------------------------- E12

def fig13_breakdown(models: Sequence[str] = ("resnet200", "bert-large")) -> Dict:
    """Figure 13: exposed migration + recomputation shares, and the Sentinel
    ablation (direct migration / + determined MI / all)."""
    policies = ("vdnn", "autotm", "swapadvisor", "capuchin")
    ablations = {
        "sentinel (direct)": _cfg(
            interval_opt=False, reserve_short=False, co_allocate=False
        ),
        "sentinel (det. MI)": _cfg(reserve_short=False, co_allocate=False),
        "sentinel (all)": _cfg(),
    }
    from repro.obs import EventTracer
    from repro.obs.critpath import attribute

    rows = []
    records: Dict[str, Dict[str, Dict[str, float]]] = {}
    cross_lines: List[str] = []
    for name in models:
        batch = GPU_BATCHES[name][-1]
        per_model: Dict[str, Dict[str, float]] = {}
        for policy in policies:
            try:
                metrics = run_policy(
                    policy, model=name, batch_size=batch, platform=GPU_HM
                )
            except UnsupportedModelError:
                continue
            per_model[policy] = _breakdown(metrics)
            rows.append(_breakdown_row(name, policy, per_model[policy]))
        for label, config in ablations.items():
            # Trace the full ablation so its breakdown can be cross-checked
            # against the independent critical-path attribution below.
            tracer = EventTracer(capacity=1 << 18) if label == "sentinel (all)" else None
            metrics = run_policy(
                SENTINEL_GPU,
                model=name,
                batch_size=batch,
                platform=GPU_HM,
                sentinel_config=config,
                tracer=tracer,
            )
            per_model[label] = _breakdown(metrics)
            rows.append(_breakdown_row(name, label, per_model[label]))
            if tracer is not None:
                attribution = attribute(tracer.events, dropped=tracer.dropped)
                last = attribution.steps[-1]
                per_model["attribution"] = {
                    "step_time": last.duration,
                    "trace_stall": last.stall,
                    "counter_stall": metrics.stall_time,
                    **last.components(),
                }
                cross_lines.append(
                    f"  {name}: trace stall {last.stall:.4f}s vs counter "
                    f"stall {metrics.stall_time:.4f}s "
                    f"(diff {abs(last.stall - metrics.stall_time):.1e})"
                )
        records[name] = per_model
    text = format_table(
        ("workload", "policy", "step s", "exposed migration", "recompute"),
        rows,
        title="Figure 13 — critical-path breakdown (share of step time)",
    )
    if cross_lines:
        text += (
            "\n\ncross-check — trace-derived attribution of the measured "
            "step (sentinel all):\n" + "\n".join(cross_lines)
        )
    return {"records": records, "text": text}


# ------------------------------------------------------------------ E12b

def step_attribution(
    models: Sequence[str] = ("dcgan", "lstm"),
    policy: str = SENTINEL_CPU,
    fast_fraction: float = 0.2,
) -> Dict:
    """Per-step critical-path attribution (the Figure 13 companion).

    Where each simulated step's time goes — compute, exposed migration
    stall, channel contention, fault handling, pressure reclaim, idle —
    measured from the event trace by :mod:`repro.obs.critpath` rather than
    from the executor's own counters, plus the what-if answers (free
    migration, doubled bandwidth) the paper's speedup claims imply.
    """
    from repro.obs import EventTracer
    from repro.obs.critpath import attribute

    records: Dict[str, Dict[str, float]] = {}
    sections: List[str] = []
    for name in models:
        tracer = EventTracer(capacity=1 << 18)
        run_policy(
            policy, model=name, fast_fraction=fast_fraction, tracer=tracer
        )
        attribution = attribute(tracer.events, dropped=tracer.dropped)
        records[name] = {
            **attribution.totals(),
            "median_step_time": attribution.median_step_time(),
            "what_if_free_migration": attribution.what_if_free_migration(),
            "what_if_2x_bandwidth": attribution.what_if_bandwidth_scale(2.0),
        }
        sections.append(
            format_attribution(
                attribution, title=f"{name} / {policy} — step attribution"
            )
        )
    return {"records": records, "text": "\n\n".join(sections)}


# -------------------------------------------------------------------- E13

def robustness_degradation(
    model: str = "resnet32",
    policies: Sequence[str] = (SENTINEL_CPU, "ial", "autotm"),
    fault_rates: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
    fast_fraction: float = 0.2,
    chaos_seed: int = 1234,
) -> Dict:
    """Fault-rate sweep: throughput degradation under injected substrate faults.

    Every run gets a deterministic seeded injector (EBUSY migration
    refusals, mid-flight copy aborts, Optane write-throttling episodes,
    lossy profiling) plus the per-step invariant auditor; Sentinel
    additionally runs with a Case-3 patience deadline so a crawling
    prefetch degrades to the leave-in-slow path instead of an unbounded
    stall.  The requirement being demonstrated is *graceful* degradation:
    every policy completes at every rate, throughput decays smoothly with
    the fault rate, and the memory accounting still balances throughout.
    """
    if not policies:
        raise ValueError("need at least one policy")
    slow = run_policy("slow-only", model=model)
    # Patience budget: roughly one slow-tier step.  Waiting longer than that
    # for a prefetch can never beat just running the interval from slow.
    deadline = slow.step_time
    rows = []
    records: Dict[str, List[Dict[str, float]]] = {}
    for policy in policies:
        series: List[Dict[str, float]] = []
        baseline: Optional[float] = None
        for rate in fault_rates:
            # Per-point seeds (not one shared stream) so a point's fault
            # sequence is independent of which other points ran before it.
            chaos = ChaosConfig.uniform(
                rate, seed=point_seed(chaos_seed, policy, model, rate)
            )
            config = (
                _cfg(case3_wait_deadline=deadline)
                if policy in (SENTINEL_CPU, SENTINEL_GPU)
                else None
            )
            metrics = run_policy(
                policy,
                model=model,
                fast_fraction=fast_fraction,
                sentinel_config=config,
                chaos=chaos,
                audit=True,
            )
            if baseline is None:
                baseline = metrics.throughput
            point = {
                "fault_rate": rate,
                "throughput": metrics.throughput,
                "step_time": metrics.step_time,
                "relative": metrics.throughput / baseline if baseline else 0.0,
                "retries": metrics.extras.get("migration_retries", 0.0),
                "busy_fallbacks": metrics.extras.get("busy_fallbacks", 0.0),
                "aborted_bytes": metrics.extras.get("aborted_bytes", 0.0),
                "faults_dropped": metrics.extras.get("faults_dropped", 0.0),
                "reprofile_steps": metrics.extras.get("reprofile_steps", 0.0),
                "case3_fallbacks": metrics.extras.get("case3_fallbacks", 0.0),
            }
            series.append(point)
            rows.append(
                (
                    policy,
                    f"{rate:.0%}",
                    f"{metrics.throughput:.4g}",
                    f"{point['relative']:.2f}",
                    int(point["retries"]),
                    int(point["busy_fallbacks"]),
                    f"{mib(point['aborted_bytes']):.0f}",
                    int(point["faults_dropped"]),
                    int(point["reprofile_steps"] + point["case3_fallbacks"]),
                )
            )
        records[policy] = series
    text = format_table(
        (
            "policy",
            "fault rate",
            "samples/s",
            "vs 0%",
            "retries",
            "refused",
            "aborted MiB",
            "dropped faults",
            "sentinel fallbacks",
        ),
        rows,
        title=f"Robustness — {model} throughput under injected faults "
        f"(chaos seed {chaos_seed})",
    )
    return {
        "model": model,
        "fault_rates": tuple(fault_rates),
        "chaos_seed": chaos_seed,
        "records": records,
        "text": text,
    }


def ras_resilience(
    model: str = "resnet32",
    recoveries: Sequence[str] = ("none", "refetch", "remat"),
    ue_rates: Sequence[float] = (0.0, 2e-10, 1e-9),
    ce_ratio: float = 10.0,
    scrub_bandwidth: float = 256 * 1024**2,
    fast_fraction: float = 0.2,
    ras_seed: int = 4321,
) -> Dict:
    """UE-rate sweep: training resilience under uncorrectable memory errors.

    Every point runs Sentinel under the RAS engine (:mod:`repro.mem.ras`)
    with seeded CE/UE injection at the given per-byte-second UE rate (CEs
    at ``ce_ratio`` times that), a patrol scrubber at ``scrub_bandwidth``
    bytes/s, and the per-step invariant auditor.  The sweep compares
    recovery policies: ``"none"`` turns every UE into a fatal
    :class:`~repro.errors.UncorrectableMemoryError` (recorded as a died
    point, not an exception); ``"refetch"`` re-fetches clean preallocated
    pages but dies on activations; ``"remat"`` additionally re-runs the
    producer op, so training survives UEs on live activations at the cost
    of recovery time — which lands in the ``ras_recovery`` critical-path
    bucket and the counters reported here.

    The rate-0 point per policy is the RAS-disabled baseline (the config
    is dormant, the run byte-identical to a pre-RAS machine); ``relative``
    throughput is measured against it.  Per-point seeds come from
    :func:`point_seed`, so a point's error sequence depends only on its
    own coordinates.
    """
    from repro.errors import UncorrectableMemoryError

    if not recoveries or not ue_rates:
        raise ValueError("need at least one recovery policy and one UE rate")
    rows = []
    records: Dict[str, List[Dict[str, object]]] = {}
    for recovery in recoveries:
        series: List[Dict[str, object]] = []
        baseline: Optional[float] = None
        for rate in ue_rates:
            ras = RASConfig(
                seed=point_seed(ras_seed, recovery, model, rate),
                ue_rate=rate,
                ce_rate=rate * ce_ratio,
                scrub_bandwidth=scrub_bandwidth,
                recovery=recovery,
            )
            try:
                metrics = run_policy(
                    SENTINEL_CPU,
                    model=model,
                    fast_fraction=fast_fraction,
                    ras=ras,
                    audit=True,
                )
            except UncorrectableMemoryError as err:
                series.append(
                    {"ue_rate": rate, "survived": False, "error": str(err)}
                )
                rows.append(
                    (recovery, f"{rate:.1e}", "died", "-", "-", "-", "-", "-", "-")
                )
                continue
            if baseline is None:
                baseline = metrics.throughput
            extras = metrics.extras
            point = {
                "ue_rate": rate,
                "survived": True,
                "step_time": metrics.step_time,
                "throughput": metrics.throughput,
                "relative": metrics.throughput / baseline if baseline else 0.0,
                "errors_injected": extras.get("ras.errors_injected", 0),
                "ce_corrected": extras.get("ras.ce_corrected", 0),
                "ce_scrubbed": extras.get("ras.ce_scrubbed", 0),
                "ue_detected": extras.get("ras.ue_detected", 0),
                "retired_frames": extras.get("ras.retired_frames", 0),
                "clean_drops": extras.get("ras.clean_drops", 0),
                "refetch_events": extras.get("ras.refetch_events", 0),
                "remat_events": extras.get("ras.remat_events", 0),
                "recovery_time": extras.get("ras.remat_time", 0.0)
                + extras.get("ras.refetch_time", 0.0),
            }
            series.append(point)
            rows.append(
                (
                    recovery,
                    f"{rate:.1e}",
                    f"{metrics.step_time:.4f}",
                    f"{point['relative']:.2f}",
                    int(point["errors_injected"]),
                    int(point["ce_scrubbed"]),
                    int(point["ue_detected"]),
                    int(point["retired_frames"]),
                    f"{point['recovery_time']:.4f}",
                )
            )
        records[recovery] = series
    text = format_table(
        (
            "recovery",
            "UE rate",
            "step (s)",
            "vs rate 0",
            "errors",
            "scrubbed",
            "UEs",
            "retired",
            "recovery s",
        ),
        rows,
        title=f"RAS resilience — {model} under CE/UE injection "
        f"(seed {ras_seed}, scrub {mib(scrub_bandwidth):.0f} MiB/s)",
    )
    return {
        "model": model,
        "recoveries": tuple(recoveries),
        "ue_rates": tuple(ue_rates),
        "ras_seed": ras_seed,
        "records": records,
        "text": text,
    }


def pressure_survival(
    models: Sequence[str] = tuple(MODELS),
    policies: Sequence[str] = (SENTINEL_CPU, "ial"),
    fast_fractions: Sequence[float] = (0.1, 0.05),
    watermarks: Tuple[float, float] = (0.75, 0.9),
    reserve_frames: int = 32,
    trace: bool = False,
) -> Dict:
    """Capacity-pressure survival sweep: fast memory down to 5% of peak.

    Every (model, policy, fraction) point runs under the memory-pressure
    governor — watermark admission control, an urgent-lane reserve pool,
    spill-to-slow allocation fallback, and (for the arena-backed IAL
    baseline) bounded compaction — plus the per-step invariant auditor.
    The requirement being demonstrated is *survival*: every point
    completes with balanced accounting and no exception, degrading into
    slow-tier traffic that the spill/refusal/compaction counters make
    visible instead of dying at the capacity wall.

    With ``trace=True`` every point captures its own event trace and the
    result carries ``labeled`` (label, events) pairs ready for
    :func:`repro.obs.combine_chrome`.
    """
    if not models or not policies or not fast_fractions:
        raise ValueError("need at least one model, policy, and fraction")
    low, high = watermarks
    pressure = PressureConfig.watermarks(low, high, reserve_frames=reserve_frames)
    rows = []
    records: Dict[str, List[Dict[str, float]]] = {}
    labeled: List[Tuple[str, Tuple]] = []
    for model in models:
        for policy in policies:
            series = records.setdefault(f"{policy}/{model}", [])
            for fraction in fast_fractions:
                tracer = None
                if trace:
                    from repro.obs import EventTracer

                    tracer = EventTracer()
                metrics = run_policy(
                    policy,
                    model=model,
                    fast_fraction=fraction,
                    pressure=pressure,
                    audit=True,
                    tracer=tracer,
                )
                if tracer is not None:
                    labeled.append(
                        (f"{policy}/{model}/f{fraction:g}", tuple(tracer.events))
                    )
                extras = metrics.extras
                point = {
                    "fast_fraction": fraction,
                    "step_time": metrics.step_time,
                    "throughput": metrics.throughput,
                    "spills": extras.get("pressure.spills", 0.0),
                    "spilled_bytes": extras.get("pressure.spilled_bytes", 0.0),
                    "refused_promotions": extras.get(
                        "pressure.refused_promotions", 0.0
                    ),
                    "reclaims": extras.get("pressure.reclaims", 0.0),
                    "compaction_moves": extras.get(
                        "pressure.compaction_moves", 0.0
                    ),
                    "compaction_bytes": extras.get(
                        "pressure.compaction_bytes", 0.0
                    ),
                }
                series.append(point)
                rows.append(
                    (
                        model,
                        policy,
                        f"{fraction:.0%}",
                        f"{metrics.step_time:.4f}",
                        int(point["spills"]),
                        f"{mib(point['spilled_bytes']):.0f}",
                        int(point["refused_promotions"]),
                        int(point["reclaims"]),
                        int(point["compaction_moves"]),
                    )
                )
    text = format_table(
        (
            "model",
            "policy",
            "fast",
            "step (s)",
            "spills",
            "spilled MiB",
            "refused",
            "reclaims",
            "compaction moves",
        ),
        rows,
        title=f"Pressure survival — watermarks {low:g}/{high:g}, "
        f"reserve {reserve_frames} frames (every point must complete)",
    )
    return {
        "models": tuple(models),
        "policies": tuple(policies),
        "fast_fractions": tuple(fast_fractions),
        "watermarks": (low, high),
        "reserve_frames": reserve_frames,
        "records": records,
        "labeled": labeled,
        "text": text,
    }


def _breakdown(metrics: RunMetrics) -> Dict[str, float]:
    recompute = metrics.extras.get("recompute_time", 0.0)
    return {
        "step_time": metrics.step_time,
        "exposed_migration": max(0.0, metrics.stall_time - recompute),
        "recompute": recompute,
    }


def _breakdown_row(model: str, policy: str, b: Dict[str, float]) -> Tuple:
    step = b["step_time"] or 1.0
    return (
        model,
        policy,
        f"{b['step_time']:.3f}",
        f"{b['exposed_migration'] / step:.1%}",
        f"{b['recompute'] / step:.1%}",
    )


def multi_tenant_contention(
    models: Sequence[str] = ("dcgan", "lstm"),
    policies: Sequence[str] = ("ial", SENTINEL_CPU),
    fast_fraction: float = 0.2,
    trace: bool = False,
) -> Dict:
    """Channel contention between co-scheduled workloads (event engine).

    For each policy, the ``models`` are run twice at *matched* fast
    capacity (the given fraction of their combined peak): once isolated —
    each model alone on a machine of that size — and once co-scheduled on
    one machine through :func:`repro.harness.cluster.run_concurrent`.
    Sharing the promote/demote/demand channels queues each tenant's
    transfers behind the other's, so per-workload step times grow and the
    channel mean queueing delay becomes nonzero; capacity is shared too,
    so a pressure governor keeps co-tenants spilling instead of dying.

    The demonstrated claim is the engine's reason to exist: aggregate
    co-scheduled step time exceeds the isolated sum, while each isolated
    run through the same engine is byte-identical to the legacy lockstep
    loop (the equivalence suite pins that half).
    """
    from repro.harness.cluster import WorkloadSpec, run_concurrent

    if len(models) < 2:
        raise ValueError("contention needs at least two co-scheduled models")
    rows = []
    records: Dict[str, List[Dict[str, float]]] = {}
    labeled: List[Tuple[str, Tuple]] = []
    for policy in policies:
        combined_peak = sum(
            build_model(model, scale="small").peak_memory_bytes()
            for model in models
        )
        cap = fast_capacity_for(combined_peak, fast_fraction, OPTANE_HM)
        isolated = {
            model: run_policy(policy, model=model, fast_capacity=cap)
            for model in models
        }
        tracer = None
        if trace:
            from repro.obs import EventTracer

            tracer = EventTracer()
        report = run_concurrent(
            [
                WorkloadSpec(name=f"{model}-{index}", model=model, policy=policy)
                for index, model in enumerate(models)
            ],
            fast_capacity=cap,
            tracer=tracer,
        )
        if tracer is not None:
            labeled.append((f"concurrent/{policy}", tuple(tracer.events)))
        series = records.setdefault(policy, [])
        iso_sum = 0.0
        cluster_sum = 0.0
        for index, model in enumerate(models):
            workload = report.workload(f"{model}-{index}")
            iso = isolated[model].step_time
            shared = workload.steady_step_time
            iso_sum += iso
            cluster_sum += shared
            slowdown = shared / iso if iso > 0 else 0.0
            rows.append(
                (
                    policy,
                    model,
                    f"{iso:.4f}",
                    f"{shared:.4f}",
                    f"{slowdown:.2f}x",
                )
            )
            series.append(
                {
                    "model": model,
                    "isolated_step_time": iso,
                    "concurrent_step_time": shared,
                    "slowdown": slowdown,
                }
            )
        queue_delay = max(report.channel_queue_delay.values())
        rows.append(
            (
                policy,
                "(aggregate)",
                f"{iso_sum:.4f}",
                f"{cluster_sum:.4f}",
                f"fairness {report.fairness:.3f}",
            )
        )
        series.append(
            {
                "model": "(aggregate)",
                "isolated_step_time": iso_sum,
                "concurrent_step_time": cluster_sum,
                "slowdown": cluster_sum / iso_sum if iso_sum > 0 else 0.0,
                "fairness": report.fairness,
                "makespan": report.makespan,
                "max_queue_delay": queue_delay,
            }
        )
    text = format_table(
        ("policy", "model", "isolated (s)", "co-sched (s)", "slowdown"),
        rows,
        title=f"multi-tenant contention — {'+'.join(models)}, "
        f"fast = {fast_fraction:.0%} of combined peak",
    )
    return {
        "models": tuple(models),
        "policies": tuple(policies),
        "fast_fraction": fast_fraction,
        "records": records,
        "labeled": labeled,
        "text": text,
    }


def serving_overload(
    rates: Sequence[float] = (0.3, 0.6, 1.0),
    admissions: Sequence[str] = ("fifo", "edf", "watermark"),
    horizon: float = 30.0,
    slots: int = 2,
    queue_limit: int = 4,
    seed: int = 7,
    fast_fraction: float = 0.5,
) -> Dict:
    """Graceful degradation under open-loop overload (serving harness).

    Sweeps arrival rate × admission policy over a fixed inference-heavy
    traffic mix.  The claim demonstrated: as offered load crosses the
    machine's service capacity, a bounded-queue admission policy degrades
    *gracefully* — tail latency of admitted jobs stays bounded (the queue
    bound caps waiting time) while the excess is shed and reported, instead
    of latency growing without limit.  EDF additionally expires
    already-hopeless jobs at dispatch; watermark shedding refuses work
    earlier, trading completions for headroom.

    Deterministic: the whole sweep is a pure function of ``seed``.
    """
    from repro.serve import SERVE_MIX, PoissonArrivals, ServeConfig, serve

    rows = []
    records: Dict[str, List[Dict[str, float]]] = {}
    for admission in admissions:
        series = records.setdefault(admission, [])
        for rate in rates:
            report = serve(
                PoissonArrivals(
                    rate=rate, horizon=horizon, templates=SERVE_MIX, seed=seed
                ),
                ServeConfig(
                    seed=seed,
                    slots=slots,
                    admission=admission,
                    queue_limit=queue_limit,
                    timeout=4.0 * max(t.slo for t in SERVE_MIX),
                ),
                fast_fraction=fast_fraction,
            )
            shed = report.counts.get("serve.shed", 0)
            rows.append(
                (
                    admission,
                    f"{rate:.2f}",
                    report.total_jobs,
                    report.completed,
                    f"{report.slo_attainment:.0%}",
                    f"{report.p50:.2f}",
                    f"{report.p99:.2f}",
                    shed,
                    report.counts.get("serve.expired", 0),
                )
            )
            series.append(
                {
                    "rate": rate,
                    "jobs": report.total_jobs,
                    "completed": report.completed,
                    "slo_attainment": report.slo_attainment,
                    "goodput": report.goodput,
                    "p50": report.p50,
                    "p99": report.p99,
                    "shed": shed,
                    "retries": report.counts.get("serve.retry", 0),
                    "expired": report.counts.get("serve.expired", 0),
                }
            )
    text = format_table(
        (
            "admission",
            "rate (/s)",
            "jobs",
            "done",
            "SLO",
            "p50 (s)",
            "p99 (s)",
            "shed",
            "expired",
        ),
        rows,
        title=f"serving overload — mobilenet+dcgan mix, {slots} slots, "
        f"queue {queue_limit}, horizon {horizon:.0f}s",
    )
    return {
        "rates": tuple(rates),
        "admissions": tuple(admissions),
        "records": records,
        "text": text,
    }
