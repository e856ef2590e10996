"""Typed sim-time metrics registry (counters, gauges, histograms, series).

``repro.obs.metrics`` is the quantitative half of the observability layer:
where :mod:`repro.obs.trace` records *when* things happened, this module
records *how much* and *how they distribute*.  A single
:class:`MetricsRegistry` is the namespace every substrate component records
into, holding four metric kinds:

* :class:`Counter` — a named monotonic accumulator (bytes migrated, faults
  taken).  ``add`` rejects negative amounts: every counted quantity only
  ever grows, and a negative delta slipping in would silently corrupt the
  differential checks that re-derive counter values from event traces.
* :class:`Gauge` — a point-in-time level that may move both ways (queue
  backlog, used fraction).
* :class:`Histogram` — a fixed log-spaced binning of observations
  (transfer sizes, queueing delays, prefetch lags).  The bin edges are
  fixed at construction so merged or diffed snapshots always line up.
* :class:`Timeline` — fixed-width time-binned accumulation (the Figure 9
  bandwidth-over-time plot).
* :class:`TimeSeries` — a bounded ``(t, value)`` sampler driven by the
  simulation clock (:meth:`MetricsRegistry.bind_clock`), for level curves
  like fast-tier occupancy.

Exposition is deterministic both ways: :meth:`MetricsRegistry.to_json`
emits canonical JSON (sorted keys, compact separators — byte-stable across
runs and insertion orders) and :meth:`MetricsRegistry.to_prometheus` emits
the Prometheus text format with cumulative histogram buckets.

Like the tracer, the registry is zero-overhead when not asked for: the
machine always owns one registry for its counters (they predate this
module), but the *detailed* sampling sites (histograms, series) only run
when a caller explicitly attached a registry via ``metrics=`` — every such
site is a single ``is not None`` check, keeping un-metered runs
byte-identical to builds predating this module.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.clock import Clock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timeline",
    "TimeSeries",
    "MetricsRegistry",
]


class Counter:
    """A named monotonic accumulator.

    ``add`` rejects negative amounts: every quantity counted (bytes moved,
    faults taken, retries) only ever grows, and a negative delta slipping in
    would silently corrupt differential checks that re-derive counter values
    from event traces.  Use :meth:`reset` to start over.
    """

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def add(self, amount: float) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} is monotonic; cannot add {amount!r}"
            )
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value!r})"


class Gauge:
    """A named level that may move in both directions (backlog, occupancy)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.value!r})"


class Histogram:
    """Distribution of non-negative observations over fixed log-spaced bins.

    The bucket upper bounds are ``bins`` points spaced evenly in log space
    between ``lo`` and ``hi``, plus a final ``+inf`` overflow bucket.  The
    edges are fixed at construction — histograms with the same parameters
    always bin identically, so snapshots from different runs can be diffed
    or merged bucket-by-bucket.

    The defaults span nanoseconds-to-kiloseconds *and* bytes-to-terabytes
    (1e-9 .. 1e12, two buckets per decade), wide enough for every quantity
    the substrate observes without per-site tuning.
    """

    kind = "histogram"
    __slots__ = ("name", "lo", "hi", "edges", "counts", "count", "sum", "min", "max")

    def __init__(
        self, name: str, lo: float = 1e-9, hi: float = 1e12, bins: int = 42
    ) -> None:
        if not 0.0 < lo < hi:
            raise ValueError(f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
        if bins < 1:
            raise ValueError(f"need at least one bin, got {bins!r}")
        self.name = name
        self.lo = float(lo)
        self.hi = float(hi)
        ratio = math.log(hi / lo)
        #: bucket upper bounds; observations <= edges[i] land in bucket i,
        #: anything above ``hi`` lands in the implicit +inf overflow bucket
        self.edges: List[float] = [
            lo * math.exp(ratio * (i + 1) / bins) for i in range(bins)
        ]
        self.edges[-1] = float(hi)  # kill float drift on the top edge
        self.counts: List[int] = [0] * (bins + 1)  # + overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(
                f"histogram {self.name!r} takes non-negative values, got {value!r}"
            )
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile: the upper bound of the bucket where
        the cumulative count crosses ``q * count`` (the exact maximum for
        the overflow bucket).  0.0 on an empty histogram."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, bucket in enumerate(self.counts):
            cumulative += bucket
            if cumulative >= target and bucket:
                if index == len(self.edges):
                    return self.max
                return self.edges[index]
        return self.max

    def nonzero_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, count)`` for occupied buckets (inf for overflow)."""
        out: List[Tuple[float, int]] = []
        for index, bucket in enumerate(self.counts):
            if bucket:
                bound = self.edges[index] if index < len(self.edges) else math.inf
                out.append((bound, bucket))
        return out

    def reset(self) -> None:
        self.counts = [0] * len(self.counts)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, n={self.count}, sum={self.sum!r})"


class Timeline:
    """Accumulates quantities into fixed-width time bins.

    Used for bandwidth traces: ``record(t, nbytes)`` adds ``nbytes`` to the
    bin containing ``t``; :meth:`series` then yields ``(bin_start, rate)``
    pairs where ``rate`` is bytes per second within the bin.
    """

    kind = "timeline"

    def __init__(self, bin_width: float) -> None:
        if bin_width <= 0.0:
            raise ValueError(f"bin width must be positive, got {bin_width!r}")
        self.bin_width = float(bin_width)
        self._bins: Dict[int, float] = {}

    def record(self, when: float, amount: float) -> None:
        if when < 0.0:
            raise ValueError(f"cannot record at negative time {when!r}")
        index = int(when / self.bin_width)
        self._bins[index] = self._bins.get(index, 0.0) + amount

    def record_span(self, start: float, end: float, amount: float) -> None:
        """Spread ``amount`` uniformly over the interval [start, end)."""
        if end < start:
            raise ValueError(f"span end {end!r} precedes start {start!r}")
        if end == start:
            self.record(start, amount)
            return
        rate = amount / (end - start)
        if not math.isfinite(rate):
            # Span too short for finite rate arithmetic (denormal widths):
            # treat it as an instantaneous event.
            self.record(start, amount)
            return
        first = int(start / self.bin_width)
        last = int(end / self.bin_width)
        for index in range(first, last + 1):
            bin_start = index * self.bin_width
            bin_end = bin_start + self.bin_width
            overlap = min(end, bin_end) - max(start, bin_start)
            if overlap > 0.0:
                self._bins[index] = self._bins.get(index, 0.0) + rate * overlap

    def series(self) -> List[Tuple[float, float]]:
        """Return ``(bin_start_time, amount_per_second)`` sorted by time."""
        return [
            (index * self.bin_width, total / self.bin_width)
            for index, total in sorted(self._bins.items())
        ]

    def total(self) -> float:
        return sum(self._bins.values())

    def reset(self) -> None:
        self._bins.clear()


class TimeSeries:
    """Bounded ``(t, value)`` sampler driven by the simulation clock.

    ``sample(value)`` stamps the owning registry's bound clock (or takes an
    explicit ``ts``); the newest ``max_samples`` points are kept, oldest
    evicted first — the series is a sliding window, not an unbounded log.
    """

    kind = "series"
    __slots__ = ("name", "max_samples", "_samples", "_registry", "dropped")

    def __init__(
        self,
        name: str,
        max_samples: int = 4096,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples!r}")
        self.name = name
        self.max_samples = max_samples
        self._samples: List[Tuple[float, float]] = []
        self._registry = registry
        self.dropped = 0

    def sample(self, value: float, ts: Optional[float] = None) -> None:
        if ts is None:
            ts = self._registry.now() if self._registry is not None else 0.0
        if len(self._samples) >= self.max_samples:
            del self._samples[0]
            self.dropped += 1
        self._samples.append((float(ts), float(value)))

    @property
    def samples(self) -> List[Tuple[float, float]]:
        """Retained ``(t, value)`` points in sample order."""
        return list(self._samples)

    def last(self) -> Optional[Tuple[float, float]]:
        return self._samples[-1] if self._samples else None

    def reset(self) -> None:
        self._samples.clear()
        self.dropped = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeSeries({self.name!r}, n={len(self._samples)})"


class MetricsRegistry:
    """Namespace of typed metrics with canonical exposition.

    One flat name space covers all kinds; asking for an existing name with
    a different kind (or a histogram/timeline with different parameters)
    raises instead of silently mixing shapes.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._clock: Optional["Clock"] = None
        self._help: Dict[str, str] = {}

    # ---------------------------------------------------------------- help

    def describe(self, name: str, text: str) -> None:
        """Attach Prometheus ``# HELP`` text to the metric called ``name``.

        Idempotent per name (last call wins); metrics without a description
        expose their dotted name as the help string.
        """
        self._help[name] = text

    # -------------------------------------------------------------- clock

    def bind_clock(self, clock: "Clock") -> None:
        """Adopt ``clock`` as the timestamp source for clockless samplers."""
        self._clock = clock

    def now(self) -> float:
        """Current simulated time (0.0 before a clock is bound)."""
        return self._clock.now if self._clock is not None else 0.0

    # ----------------------------------------------------------- accessors

    def _get(self, name: str, kind: str):
        metric = self._metrics.get(name)
        if metric is not None and metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        metric = self._get(name, "counter")
        if metric is None:
            metric = Counter(name)
            self._metrics[name] = metric
        return metric

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        metric = self._get(name, "gauge")
        if metric is None:
            metric = Gauge(name)
            self._metrics[name] = metric
        return metric

    def histogram(
        self, name: str, lo: float = 1e-9, hi: float = 1e12, bins: int = 42
    ) -> Histogram:
        """Get or create the histogram called ``name``.

        Bin geometry is fixed by the first call; later calls with different
        parameters raise to avoid silently mixing bucket layouts.
        """
        metric = self._get(name, "histogram")
        if metric is None:
            metric = Histogram(name, lo=lo, hi=hi, bins=bins)
            self._metrics[name] = metric
            return metric
        if (metric.lo, metric.hi, len(metric.edges)) != (float(lo), float(hi), bins):
            raise ValueError(
                f"histogram {name!r} already exists with lo={metric.lo!r} "
                f"hi={metric.hi!r} bins={len(metric.edges)}, requested "
                f"lo={lo!r} hi={hi!r} bins={bins!r}"
            )
        return metric

    def timeline(self, name: str, bin_width: float = 0.01) -> Timeline:
        """Get or create the timeline called ``name``.

        The bin width is fixed by the first call; later calls with a different
        width raise to avoid silently mixing resolutions.
        """
        metric = self._get(name, "timeline")
        if metric is None:
            metric = Timeline(bin_width)
            self._metrics[name] = metric
            return metric
        if metric.bin_width != bin_width:
            raise ValueError(
                f"timeline {name!r} already exists with bin width "
                f"{metric.bin_width!r}, requested {bin_width!r}"
            )
        return metric

    def series(self, name: str, max_samples: int = 4096) -> TimeSeries:
        """Get or create the time series called ``name``."""
        metric = self._get(name, "series")
        if metric is None:
            metric = TimeSeries(name, max_samples=max_samples, registry=self)
            self._metrics[name] = metric
        return metric

    # ------------------------------------------------------------ snapshots

    def counters(self, prefix: str = "") -> Dict[str, float]:
        """Snapshot of all counter values, optionally filtered by prefix."""
        return {
            name: metric.value
            for name, metric in self._metrics.items()
            if metric.kind == "counter" and name.startswith(prefix)
        }

    def metrics(self, kind: Optional[str] = None) -> Dict[str, object]:
        """All registered metrics (optionally of one kind), sorted by name."""
        return {
            name: metric
            for name, metric in sorted(self._metrics.items())
            if kind is None or metric.kind == kind
        }

    def reset(self) -> None:
        for metric in self._metrics.values():
            metric.reset()

    # ----------------------------------------------------------- exposition

    def snapshot(self) -> Dict[str, dict]:
        """Canonical nested-dict snapshot, keyed by kind then name."""
        out: Dict[str, dict] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "timelines": {},
            "series": {},
        }
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.kind == "counter":
                out["counters"][name] = metric.value
            elif metric.kind == "gauge":
                out["gauges"][name] = metric.value
            elif metric.kind == "histogram":
                out["histograms"][name] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "min": metric.min if metric.count else None,
                    "max": metric.max if metric.count else None,
                    "buckets": [
                        [None if math.isinf(bound) else bound, count]
                        for bound, count in metric.nonzero_buckets()
                    ],
                }
            elif metric.kind == "timeline":
                out["timelines"][name] = {
                    "bin_width": metric.bin_width,
                    "total": metric.total(),
                    "series": [[t, rate] for t, rate in metric.series()],
                }
            else:  # series
                out["series"][name] = {
                    "dropped": metric.dropped,
                    "samples": [[t, v] for t, v in metric.samples],
                }
        return out

    def to_json(self) -> str:
        """Canonical JSON exposition: sorted keys, compact separators.

        Byte-stable for a given set of recorded values regardless of the
        order metrics were registered or updated in — diffable across runs
        the same way :func:`repro.obs.export.canonical_digest` is for
        traces.
        """
        return json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":"))

    def to_prometheus(self, namespace: str = "repro") -> str:
        """Prometheus text-format exposition (version 0.0.4).

        Counters, gauges, and histograms (with cumulative ``_bucket``
        samples, ``_sum`` and ``_count``) are exposed; timelines surface as
        a ``_total`` counter and time series as their latest value — the
        full temporal shapes belong in the JSON exposition, not in a
        point-in-time scrape.

        Every exposed family carries a ``# HELP`` line (the text set via
        :meth:`describe`, defaulting to the dotted metric name) ahead of
        its ``# TYPE`` line, and label values go through
        :func:`escape_label_value`, both per the exposition-format spec.
        """
        lines: List[str] = []

        def _head(flat: str, name: str, kind: str) -> None:
            text = self._help.get(name, name)
            lines.append(f"# HELP {flat} {_escape_help(text)}")
            lines.append(f"# TYPE {flat} {kind}")

        for name in sorted(self._metrics):
            metric = self._metrics[name]
            flat = _prom_name(namespace, name)
            if metric.kind == "counter":
                _head(flat, name, "counter")
                lines.append(f"{flat} {_prom_value(metric.value)}")
            elif metric.kind == "gauge":
                _head(flat, name, "gauge")
                lines.append(f"{flat} {_prom_value(metric.value)}")
            elif metric.kind == "histogram":
                _head(flat, name, "histogram")
                cumulative = 0
                for index, bound in enumerate(metric.edges):
                    cumulative += metric.counts[index]
                    le = escape_label_value(_prom_value(bound))
                    lines.append(f'{flat}_bucket{{le="{le}"}} {cumulative}')
                lines.append(f'{flat}_bucket{{le="+Inf"}} {metric.count}')
                lines.append(f"{flat}_sum {_prom_value(metric.sum)}")
                lines.append(f"{flat}_count {metric.count}")
            elif metric.kind == "timeline":
                _head(f"{flat}_total", name, "counter")
                lines.append(f"{flat}_total {_prom_value(metric.total())}")
            else:  # series
                last = metric.last()
                if last is not None:
                    _head(flat, name, "gauge")
                    lines.append(f"{flat} {_prom_value(last[1])}")
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(namespace: str, name: str) -> str:
    """Sanitize a dotted metric name into a Prometheus identifier."""
    flat = f"{namespace}_{name}" if namespace else name
    out = []
    for index, char in enumerate(flat):
        if char.isalnum() and (index > 0 or not char.isdigit()) or char in "_:":
            out.append(char)
        else:
            out.append("_")
    return "".join(out)


def _prom_value(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format (0.0.4).

    Backslash, double-quote, and line-feed are the three characters the
    spec requires escaping inside ``label="..."``; everything else passes
    through verbatim.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Escape ``# HELP`` text: the spec escapes backslash and line-feed only."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")
