"""Plain-text rendering of experiment results.

The benchmarks print the same rows/series the paper's tables and figures
report; these helpers keep that output aligned and consistent.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    name: str, points: Sequence[Tuple[object, float]], unit: str = ""
) -> str:
    """Render an (x, y) series as the figure data it regenerates."""
    lines = [f"{name}{f' ({unit})' if unit else ''}:"]
    for x, y in points:
        lines.append(f"  {_cell(x):>12} -> {y:.4g}")
    return "\n".join(lines)


def format_bars(
    name: str,
    points: Sequence[Tuple[object, float]],
    width: int = 40,
    unit: str = "",
) -> str:
    """Render an (label, value) series as a horizontal ASCII bar chart.

    The figure-regenerating benchmarks use this for quick visual shape
    checks in the saved text outputs.
    """
    if not points:
        return f"{name}: (no data)"
    peak = max(value for _, value in points)
    scale = (width / peak) if peak > 0 else 0.0
    label_width = max(len(_cell(label)) for label, _ in points)
    lines = [f"{name}{f' ({unit})' if unit else ''}:"]
    for label, value in points:
        bar = "#" * max(0, round(value * scale))
        lines.append(f"  {_cell(label):>{label_width}} | {bar} {value:.4g}")
    return "\n".join(lines)


def format_counters(
    counters: "dict[str, float]", title: str = "counters", indent: int = 2
) -> str:
    """Render a counter snapshot (e.g. retry/fallback/chaos counts).

    Keys are sorted so the output is stable across runs; integral values
    print without a decimal point.
    """
    pad = " " * indent
    lines = [f"{title}:"]
    if not counters:
        lines.append(f"{pad}(none)")
        return "\n".join(lines)
    width = max(len(name) for name in counters)
    for name in sorted(counters):
        value = counters[name]
        if isinstance(value, float) and value.is_integer():
            rendered = str(int(value))
        else:
            rendered = _cell(value)
        lines.append(f"{pad}{name.ljust(width)} = {rendered}")
    return "\n".join(lines)


def format_trace_summary(events, title: str = "trace summary", dropped: int = 0) -> str:
    """Render a per-category digest of a structured event trace.

    One row per :mod:`repro.obs` category present in ``events``: event
    count, closed span count, total busy (span) time, and total ``nbytes``
    moved by that category's events — the at-a-glance companion to loading
    the full Chrome export in Perfetto.

    ``dropped`` is the tracer's ring-overwrite count; nonzero appends an
    explicit truncation warning, since every aggregate below then covers
    only the surviving window.
    """
    from repro.obs.query import TraceQuery

    events = list(events)
    query = TraceQuery(events)
    rows = []
    for cat in sorted(query.categories()):
        sub = query.filter(cat=cat)
        spans = query.spans(cat=cat)
        busy = sum(span.duration for span in spans)
        moved = TraceQuery(sub).sum_arg("nbytes")
        rows.append(
            (
                cat,
                len(sub),
                len(spans),
                f"{busy:.4g}",
                f"{mib(moved):.4g}" if moved else "0",
            )
        )
    if not rows:
        return f"{title}: (no events)"
    table = format_table(
        ("category", "events", "spans", "busy (s)", "moved (MiB)"),
        rows,
        title=title,
    )
    tracks = ", ".join(sorted(query.tracks()))
    out = f"{table}\ntracks: {tracks}"
    if dropped:
        out += (
            f"\nWARNING: ring buffer dropped {dropped} events — "
            f"window truncated, attribution may be partial"
        )
    return out


def format_attribution(attribution, title: str = "step attribution") -> str:
    """Render a :class:`repro.obs.critpath.Attribution` as the Figure 13
    style breakdown: one row per step with the exclusive components,
    a totals row, and the two headline what-if answers.
    """
    headers = (
        "step",
        "duration (s)",
        "compute",
        "mig stall",
        "contention",
        "fault",
        "reclaim",
        "ras",
        "idle",
    )
    rows = []
    for step in attribution:
        comp = step.components()
        rows.append(
            (
                step.step,
                f"{step.duration:.4f}",
                f"{comp['compute']:.4f}",
                f"{comp['migration_stall']:.4f}",
                f"{comp['channel_contention']:.4f}",
                f"{comp['fault']:.4f}",
                f"{comp['pressure_reclaim']:.4f}",
                f"{comp['ras_recovery']:.4f}",
                f"{comp['idle']:.4f}",
            )
        )
    totals = attribution.totals()
    duration_total = sum(step.duration for step in attribution)
    rows.append(
        (
            "total",
            f"{duration_total:.4f}",
            f"{totals['compute']:.4f}",
            f"{totals['migration_stall']:.4f}",
            f"{totals['channel_contention']:.4f}",
            f"{totals['fault']:.4f}",
            f"{totals['pressure_reclaim']:.4f}",
            f"{totals['ras_recovery']:.4f}",
            f"{totals['idle']:.4f}",
        )
    )
    table = format_table(headers, rows, title=title)
    if not len(attribution):
        return table
    measured = attribution.median_step_time()
    free = attribution.what_if_free_migration()
    doubled = attribution.what_if_bandwidth_scale(2.0)
    lines = [
        table,
        f"median step time        = {measured:.4f} s",
        f"what-if free migration  = {free:.4f} s"
        f" ({_speedup(measured, free)})",
        f"what-if 2x bandwidth    = {doubled:.4f} s"
        f" ({_speedup(measured, doubled)})",
    ]
    return "\n".join(lines)


def _speedup(measured: float, hypothetical: float) -> str:
    if hypothetical <= 0.0:
        return "inf speedup"
    return f"{measured / hypothetical:.2f}x speedup"


def format_pressure(extras: "dict[str, float]", title: str = "pressure") -> str:
    """Render the pressure governor's counter section of a run summary.

    Takes a run's extras (or a raw ``pressure.*`` counter snapshot) and
    prints the spill / refused-promotion / reclaim / compaction story with
    a stable shape: every headline counter appears even when zero, so runs
    can be diffed line by line.
    """
    headline = (
        ("spills", "pressure.spills", "count"),
        ("spilled", "pressure.spilled_bytes", "mib"),
        ("refused promotions", "pressure.refused_promotions", "count"),
        ("refused", "pressure.refused_bytes", "mib"),
        ("reclaims", "pressure.reclaims", "count"),
        ("reclaimed", "pressure.reclaimed_bytes", "mib"),
        ("compaction moves", "pressure.compaction_moves", "count"),
        ("compaction moved", "pressure.compaction_bytes", "mib"),
        ("compaction freed", "pressure.compaction_freed_bytes", "mib"),
        ("high-watermark crossings", "pressure.high_crossings", "count"),
    )
    width = max(len(label) for label, _, _ in headline)
    lines = [f"{title}:"]
    for label, key, kind in headline:
        value = extras.get(key, 0)
        if kind == "mib":
            rendered = f"{mib(value):.4g} MiB"
        else:
            rendered = str(int(value))
        lines.append(f"  {label.ljust(width)} = {rendered}")
    return "\n".join(lines)


def format_admission(extras: "dict[str, float]", title: str = "admission") -> str:
    """Render the migration admission controller's section of a run summary.

    Headline admit/deny/defer totals first (printed even when zero, so
    runs diff line by line), then every per-reason counter
    (``admission.denied.<reason>`` / ``admission.deferred.<reason>``) in
    sorted order.
    """
    headline = (
        ("admitted", "admission.admitted", "count"),
        ("admitted bytes", "admission.admitted_bytes", "mib"),
        ("denied bytes", "admission.denied_bytes", "mib"),
        ("deferred bytes", "admission.deferred_bytes", "mib"),
    )
    controller = extras.get("admission.controller")
    lines = [f"{title}:" if controller is None else f"{title} ({controller}):"]
    width = max(len(label) for label, _, _ in headline)
    for label, key, kind in headline:
        value = extras.get(key, 0)
        if kind == "mib":
            rendered = f"{mib(value):.4g} MiB"
        else:
            rendered = str(int(value))
        lines.append(f"  {label.ljust(width)} = {rendered}")
    reasons = sorted(
        key
        for key in extras
        if key.startswith(("admission.denied.", "admission.deferred."))
    )
    for key in reasons:
        lines.append(f"  {key.removeprefix('admission.')} = {int(extras[key])}")
    return "\n".join(lines)


def format_serve(report, title: str = "serving report") -> str:
    """Render a :class:`repro.serve.ServeReport` as a stable text block.

    Headline latency/goodput/SLO figures first, then every lifecycle
    counter in sorted order — zero-valued headline counters are printed
    too, so reports diff line by line across runs.
    """
    headline = [
        ("jobs", str(report.total_jobs)),
        ("completed", str(report.completed)),
        ("SLO met", str(report.slo_met)),
        ("SLO attainment", f"{report.slo_attainment:.1%}"),
        ("goodput (jobs/s)", f"{report.goodput:.4f}"),
        ("latency p50 (s)", f"{report.p50:.4f}"),
        ("latency p95 (s)", f"{report.p95:.4f}"),
        ("latency p99 (s)", f"{report.p99:.4f}"),
        ("latency mean (s)", f"{report.mean_latency:.4f}"),
        ("makespan (s)", f"{report.makespan:.4f}"),
        ("failure episodes", str(report.episodes)),
    ]
    always = (
        "serve.arrivals",
        "serve.admitted",
        "serve.shed",
        "serve.retry",
        "serve.expired",
        "serve.timeout",
        "serve.restart",
        "serve.failed",
    )
    counters = {key: report.counts.get(key, 0) for key in always}
    counters.update(report.counts)
    rows = headline + [
        (key, str(value)) for key, value in sorted(counters.items())
    ]
    return format_table(("metric", "value"), rows, title=title)


def format_insight(report, top: int = 10, title: str = "tensor insight") -> str:
    """Render an insight artifact dict as a stable text block.

    Headline totals first (episodes, migration traffic, ping-pong and
    wasted-prefetch damage), then the top-``top`` tensors by migrated
    bytes — the text twin of :func:`repro.obs.render_insight_html`.
    """
    tensors = report.get("tensors", [])
    totals = report.get("totals", {})
    pingpong_events = sum(row["pingpong"] for row in tensors)
    pingpong_tensors = sum(1 for row in tensors if row["pingpong"])
    wasted = sum(row["wasted_prefetch_bytes"] for row in tensors)
    stalled = sum(row.get("stall", 0.0) for row in tensors)
    headline = [
        ("tensor episodes", str(len(tensors))),
        ("occupancy samples", str(len(report.get("occupancy", [])))),
        ("migration events", str(len(report.get("migrations", [])))),
        ("promoted (MiB)", f"{mib(totals.get('promote_bytes', 0)):.4g}"),
        ("demoted (MiB)", f"{mib(totals.get('demote_bytes', 0)):.4g}"),
        ("ping-pong events", str(pingpong_events)),
        ("ping-pong tensors", str(pingpong_tensors)),
        ("wasted prefetch (MiB)", f"{mib(wasted):.4g}"),
    ]
    if stalled:
        headline.append(("attributed stall (s)", f"{stalled:.4f}"))
    parts = [format_table(("metric", "value"), headline, title=title)]
    ranked = sorted(
        tensors,
        key=lambda row: (
            -row["migrated_bytes"],
            -row["bytes_touched"],
            row["scope"],
            row["tid"],
            row["episode"],
        ),
    )[:top]
    if ranked:
        rows = []
        for row in ranked:
            label = f"{row['name']}#{row['tid']}"
            if row["episode"]:
                label += f".{row['episode']}"
            if row["scope"] != "main":
                label = f"{row['scope']}/{label}"
            rows.append(
                (
                    label,
                    f"{mib(row['nbytes']):.4g}",
                    str(row["accesses"]),
                    f"{mib(row['migrated_bytes']):.4g}",
                    f"{row['thrash']:.3g}",
                    str(row["pingpong"]),
                    f"{mib(row['wasted_prefetch_bytes']):.4g}",
                )
            )
        parts.append(
            format_table(
                (
                    "tensor",
                    "size (MiB)",
                    "accesses",
                    "migrated (MiB)",
                    "thrash",
                    "pingpong",
                    "wasted (MiB)",
                ),
                rows,
                title=f"top {len(ranked)} tensors by migrated bytes",
            )
        )
    serve = report.get("serve")
    if serve is not None:
        rows = [
            (
                f"{window['t0']:.3f}-{window['t1']:.3f}",
                str(window["jobs"]),
                str(window["ok"]),
                "-" if window["attainment"] is None else f"{window['attainment']:.1%}",
                "-" if window["burn"] is None else f"{window['burn']:.2f}",
                "ALERT" if window["alert"] else "",
            )
            for window in serve["windows"]
        ]
        parts.append(
            format_table(
                ("window (s)", "jobs", "ok", "attainment", "burn", "alert"),
                rows,
                title=f"SLO burn (objective {serve['objective']:.0%})",
            )
        )
    return "\n\n".join(parts)


def format_summary(metrics) -> str:
    """Render one run's metrics as ``repro run`` prints them: the headline
    table with every extras counter, then a pressure section when the run
    carried a governor (``pressure.*`` keys in its extras) and an admission
    section when it carried a migration admission controller
    (``admission.*`` keys)."""
    rows = [
        ("step time (s)", f"{metrics.step_time:.4f}"),
        ("throughput (samples/s)", f"{metrics.throughput:.1f}"),
        ("compute time (s)", f"{metrics.compute_time:.4f}"),
        ("exposed stall (s)", f"{metrics.stall_time:.4f}"),
        ("migrated (MiB)", f"{mib(metrics.migrated_bytes):.0f}"),
        ("fast traffic (MiB)", f"{mib(metrics.bytes_fast):.0f}"),
        ("slow traffic (MiB)", f"{mib(metrics.bytes_slow):.0f}"),
        ("peak fast use (GiB)", f"{gib(metrics.peak_fast):.2f}"),
    ]
    rows += [
        (f"extras.{key}", f"{value:g}")
        for key, value in metrics.extras.items()
        if not key.startswith(("pressure.", "migration.relocated", "admission."))
    ]
    title = f"{metrics.model} / {metrics.policy} (batch {metrics.batch_size})"
    parts = [format_table(("metric", "value"), rows, title=title)]
    if any(key.startswith("pressure.") for key in metrics.extras):
        parts.append(format_pressure(metrics.extras))
    if any(key.startswith("admission.") for key in metrics.extras):
        parts.append(format_admission(metrics.extras))
    return "\n\n".join(parts)


def jsonable(value: object):
    """Recursively convert experiment results to JSON-serializable data.

    Dataclasses become dicts, tuples become lists, non-string dict keys are
    stringified, and anything exotic (profiles, graphs) falls back to repr.
    """
    import dataclasses

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def mib(nbytes: float) -> float:
    """Bytes to MiB, for table cells."""
    return nbytes / (1024.0**2)


def gib(nbytes: float) -> float:
    """Bytes to GiB, for table cells."""
    return nbytes / (1024.0**3)
