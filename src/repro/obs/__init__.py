"""Structured event tracing for simulation runs (observability layer).

``repro.obs`` records *when* things happened, not just how often: every
migration, protection fault, prefetch decision, channel transfer, chaos
injection, and training step becomes a timestamped :class:`TraceEvent` in a
ring buffer, carrying simulated time from the executor's clock.  The paper's
temporal claims (Figures 8-10: interval behaviour, bandwidth over time,
Case 1/2/3 breakdowns) are assertions about these events, which makes the
trace the ground truth that golden-snapshot and property-based regression
tests check against.

The trace is the one record of what a run did; :class:`MetricsRegistry`
only counts.  A machine's registry (``machine.stats``) holds its counters
(bytes migrated, faults taken, spills), and every quantity with a time or
a distribution — bandwidth over time, transfer sizes, queueing delays — is
an event argument that :class:`TraceQuery` re-derives from the trace.

Zero overhead when disabled: no component ever constructs a tracer on its
own.  A :class:`~repro.mem.machine.Machine` built without one (the default)
carries ``tracer=None`` and every instrumentation site is a single
``is not None`` check that fails closed — the simulated timeline, metrics,
and outputs are bit-identical to a build without this module.

Exports load into Perfetto / ``chrome://tracing`` (:func:`to_chrome`), a
compact JSONL (:func:`to_jsonl`), and a human summary
(:func:`repro.harness.report.format_trace_summary`); :class:`TraceQuery`
answers the filtering/span/overlap questions experiments and tests ask.
"""

from repro.obs.trace import CATEGORIES, EventTracer, TraceEvent
from repro.obs.export import (
    canonical_digest,
    chrome_json,
    combine_chrome,
    from_jsonl,
    to_chrome,
    to_jsonl,
    validate_chrome,
    write_chrome,
)
from repro.obs.insight import (
    INSIGHT_SCHEMA,
    InsightCollector,
    insight_json,
    join_stall_attribution,
    validate_insight,
    write_insight,
)
from repro.obs.html import render_insight_html, write_insight_html
from repro.obs.query import Span, TraceQuery
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.critpath import (
    Attribution,
    StepAttribution,
    TraceTruncatedError,
    attribute,
)

__all__ = [
    "CATEGORIES",
    "EventTracer",
    "TraceEvent",
    "Span",
    "TraceQuery",
    "canonical_digest",
    "chrome_json",
    "combine_chrome",
    "from_jsonl",
    "to_chrome",
    "to_jsonl",
    "validate_chrome",
    "write_chrome",
    "INSIGHT_SCHEMA",
    "InsightCollector",
    "insight_json",
    "join_stall_attribution",
    "validate_insight",
    "write_insight",
    "render_insight_html",
    "write_insight_html",
    "Counter",
    "MetricsRegistry",
    "Attribution",
    "StepAttribution",
    "TraceTruncatedError",
    "attribute",
]
