"""Critical-path attribution over structured event traces.

This module answers the question Figure 13 of the paper answers for real
hardware: *where does a training step's time actually go?*  Working purely
from a :mod:`repro.obs` trace, it

1. decomposes every ``step`` span into the exclusive components
   ``{compute, migration_stall, channel_contention, fault, pressure_reclaim,
   ras_recovery, idle}`` (:func:`attribute`), with the components summing to
   the measured step duration by construction;
2. answers the what-if queries the paper's overhead analysis implies:
   step time if migration were free, or if the slow tier's bandwidth were
   scaled ``k``-fold (:meth:`StepAttribution.free_migration_time`,
   :meth:`StepAttribution.bandwidth_scaled_time`).

A step's critical path needs no graph search.  The executor lays a step's
layer spans down back to back, and the step-end event carries the stalls
before the first layer and after the last, so the layer chain plus those
two boundary gaps tiles the step window.  Every dependency a transfer
could add is happens-before, so no path through the step is longer than
that chain; ``repro run --critpath`` reads it off the last step.

The exact-sum decomposition leans on the executor's timing model rather
than re-deriving it: layer-end events carry per-layer ``exec`` / ``stall``
/ ``fault`` totals and the step-end event carries the boundary stalls, and
since the executor's clock only advances through op time and charged
stalls, ``duration == exec + stall + fault`` holds within each span up to
float rounding (the residue lands in ``idle``).  The stall total is then
subdivided with channel-span evidence from the same window:

* ``channel_contention`` — stall attributable to queueing behind earlier
  transfers: capped by the summed ``queued`` delays of promote-side
  channel spans in the step window;
* ``pressure_reclaim`` — stall attributable to governor reclaim traffic:
  capped by the in-window service time of demote-channel spans tagged
  ``pressure-reclaim``;
* ``migration_stall`` — the remainder: time waiting for copies in flight.

Truncated traces are refused outright (:class:`TraceTruncatedError`): a
ring buffer that dropped events has lost an unknown prefix of the run,
and attributing the surviving suffix would silently produce partial
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import TraceTruncatedError
from repro.obs.query import Span, TraceQuery
from repro.obs.trace import TraceEvent

__all__ = [
    "StepAttribution",
    "Attribution",
    "attribute",
    "TraceTruncatedError",
]

#: Channel tracks whose queueing delays count as promote-side contention.
_PROMOTE_TRACKS = frozenset({"promote", "demand-promote"})

#: Channel-span tags that mark governor reclaim / compaction traffic.
_RECLAIM_TAGS = frozenset({"pressure-reclaim"})


# --------------------------------------------------------------- attribution


@dataclass(frozen=True)
class StepAttribution:
    """One step's duration decomposed into exclusive components.

    ``compute + migration_stall + channel_contention + fault +
    pressure_reclaim + ras_recovery + idle == duration`` up to float
    rounding — the differential suite asserts this on every zoo model.
    """

    step: int
    start: float
    end: float
    compute: float
    migration_stall: float
    channel_contention: float
    fault: float
    pressure_reclaim: float
    idle: float
    #: RAS recovery time — machine-check handling, clean-page refetch, and
    #: tensor rematerialization (:mod:`repro.mem.ras`).  Appended after the
    #: original six fields so positional construction predating RAS keeps
    #: its meaning; zero for every RAS-free trace.
    ras_recovery: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def stall(self) -> float:
        """Total exposed migration-side stall (all three stall buckets)."""
        return self.migration_stall + self.channel_contention + self.pressure_reclaim

    def components(self) -> Dict[str, float]:
        """The exclusive components, in canonical order."""
        return {
            "compute": self.compute,
            "migration_stall": self.migration_stall,
            "channel_contention": self.channel_contention,
            "fault": self.fault,
            "pressure_reclaim": self.pressure_reclaim,
            "ras_recovery": self.ras_recovery,
            "idle": self.idle,
        }

    # ------------------------------------------------------------- what-ifs

    @property
    def free_migration_time(self) -> float:
        """Step time if every migration were free (zero exposed stall).

        Lower bound on what any migration policy could achieve for this
        step's schedule: compute, fault handling, and idle are untouched.
        """
        return self.duration - self.stall

    def bandwidth_scaled_time(self, scale: float) -> float:
        """Step time if migration-side bandwidth were multiplied by ``scale``.

        First-order model: exposed stalls are transfer-bound, so they
        shrink (or grow) inversely with bandwidth; compute, fault handling,
        and idle are unchanged.  ``scale=2.0`` answers the paper's
        "what if the slow tier were twice as fast" question.
        """
        if scale <= 0.0:
            raise ValueError(f"bandwidth scale must be positive, got {scale!r}")
        return self.duration - self.stall * (1.0 - 1.0 / scale)


@dataclass(frozen=True)
class Attribution:
    """Per-step attributions for one traced run."""

    steps: Tuple[StepAttribution, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def totals(self) -> Dict[str, float]:
        """Component sums across all steps (same keys as ``components``)."""
        out = {
            "compute": 0.0,
            "migration_stall": 0.0,
            "channel_contention": 0.0,
            "fault": 0.0,
            "pressure_reclaim": 0.0,
            "ras_recovery": 0.0,
            "idle": 0.0,
        }
        for step in self.steps:
            for key, value in step.components().items():
                out[key] += value
        return out

    def median_step_time(self, last: Optional[int] = None) -> float:
        """Median step duration, optionally over only the last ``last`` steps
        (benchmarks use the steady tail, past warmup and profiling)."""
        steps = self.steps[-last:] if last else self.steps
        if not steps:
            raise ValueError("attribution holds no steps")
        return median(step.duration for step in steps)

    def what_if_free_migration(self, last: Optional[int] = None) -> float:
        """Median step time under the free-migration what-if."""
        steps = self.steps[-last:] if last else self.steps
        if not steps:
            raise ValueError("attribution holds no steps")
        return median(step.free_migration_time for step in steps)

    def what_if_bandwidth_scale(
        self, scale: float, last: Optional[int] = None
    ) -> float:
        """Median step time under the bandwidth-scaling what-if."""
        steps = self.steps[-last:] if last else self.steps
        if not steps:
            raise ValueError("attribution holds no steps")
        return median(step.bandwidth_scaled_time(scale) for step in steps)


def _layers_within(layer_spans: List[Span], step: Span) -> List[Span]:
    return [
        layer
        for layer in layer_spans
        if layer.start >= step.start and layer.end <= step.end
    ]


def attribute(events: Iterable[TraceEvent], dropped: int = 0) -> Attribution:
    """Decompose every step span in ``events`` into exclusive components.

    Args:
        events: the trace, e.g. ``tracer.events``.
        dropped: the tracer's ``dropped`` count; nonzero refuses with
            :class:`TraceTruncatedError` (the window is partial).
    """
    if dropped:
        raise TraceTruncatedError(dropped)
    query = TraceQuery(list(events))
    step_spans = query.spans(cat="step", name="step")
    layer_spans = query.spans(cat="step", name="layer")
    channel_spans = query.spans(cat="channel")

    steps: List[StepAttribution] = []
    for span in step_spans:
        layers = _layers_within(layer_spans, span)
        exec_time = sum(layer.args.get("exec", 0.0) for layer in layers)
        fault = sum(layer.args.get("fault", 0.0) for layer in layers)
        ras_recovery = sum(layer.args.get("ras", 0.0) for layer in layers)
        stall = (
            sum(layer.args.get("stall", 0.0) for layer in layers)
            + span.args.get("pre_stall", 0.0)
            + span.args.get("post_stall", 0.0)
        )

        window = [
            c
            for c in channel_spans
            if c.start < span.end and c.end > span.start and not c.args.get("aborted")
        ]
        contention_evidence = sum(
            c.args.get("queued", 0.0)
            for c in window
            if c.track in _PROMOTE_TRACKS
        )
        reclaim_evidence = sum(
            min(c.end, span.end) - max(c.start, span.start)
            for c in window
            if c.args.get("tag") in _RECLAIM_TAGS
        )

        # Deterministic subdivision of the stall total: contention first
        # (bounded by observed queueing delays), then reclaim (bounded by
        # in-window reclaim service time), remainder is plain in-flight
        # migration stall.  Caps keep each bucket honest: evidence can
        # exceed exposed stall when transfers overlap compute.
        contention = min(stall, contention_evidence)
        reclaim = min(stall - contention, reclaim_evidence)
        migration_stall = stall - contention - reclaim
        idle = max(
            0.0, span.duration - exec_time - stall - fault - ras_recovery
        )

        steps.append(
            StepAttribution(
                step=int(span.args.get("step", len(steps))),
                start=span.start,
                end=span.end,
                compute=exec_time,
                migration_stall=migration_stall,
                channel_contention=contention,
                fault=fault,
                pressure_reclaim=reclaim,
                idle=idle,
                ras_recovery=ras_recovery,
            )
        )
    return Attribution(steps=tuple(steps))
