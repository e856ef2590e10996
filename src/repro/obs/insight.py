"""Tensor-level insight: residency timelines, heat, churn, SLO burn-rate.

The trace/metrics layers answer *when* and *how often*; this layer answers
the tensor-granularity questions Sentinel's whole design turns on — which
tensor thrashed, what fraction of fast-tier bytes were cold, which prefetch
was wasted — by deriving per-tensor analytics from a few low-cost hooks:

* **Residency timelines** — per tensor, a gap-free piecewise-constant
  timeline of how many of its bytes sat on the fast tier, flipping at each
  migration's landing instant (``transfer.finish``, matching
  ``PageTableEntry.effective_device``).  Segments tile the tensor's
  lifetime exactly: the first opens at allocation, each flip closes one and
  opens the next, the last closes at free (or finalize).
* **Heat accounting** — accesses and bytes-touched per tensor per step, and
  fast-tier occupancy split into hot/warm/cold bytes at every layer-end
  sample by last-touch recency (measured in layers, so thresholds are
  model- and platform-scale free).  Each sample carries an explicit
  ``other`` bucket (pages holding no live tensor bytes: fragmentation,
  in-flight promote reservations) so
  ``hot + warm + cold + other == measured occupancy`` holds exactly.
* **Churn analytics** — per-tensor migration lineage, a ping-pong detector
  (promote → demote → promote, however far apart), wasted-prefetch
  accounting (prefetched bytes demoted or freed untouched), and a thrash
  score (migrated bytes over bytes touched).  Per-tensor stall attribution
  joins ``repro.obs.critpath`` step decompositions onto tensors in
  proportion to their in-step migrated bytes (:func:`join_stall_attribution`).
* **Serve-side aggregation** — windowed SLO attainment, multi-window
  burn-rate alerts, and seeded reservoir sampling of per-job names so trace
  retention stays bounded at serving scale.

A landed migration finds its tensors through a page index.  Each tensor
episode's spans (the page runs backing its shares when it was allocated)
are numbered in creation order and entered in the index; a migrated range
visits exactly the live spans that share a page with it, oldest first.
That order fixes which tensor a flip meets first, and with it the order of
every float sum the flip adds (a tensor's moved bytes, the migration's
``attributed`` total), so reports repeat bit for bit.  Retiring a tensor
removes only its own spans, and every hook costs in proportion to the
tensors it touches.

Zero overhead when disabled: nothing constructs a collector on its own.  A
machine built without one carries ``insight=None`` and every hook site is a
single ``is None`` check, so un-instrumented runs stay byte-identical to
builds predating this module.

Byte-exactness caveat: tensor bytes are attributed to pages uniformly
across each share's page run (the allocator records which run backs a
share, not the offset within it).  The attribution is self-consistent —
flips mirror actual run state, so per-tensor fast bytes never leave
``[0, nbytes]`` beyond float error — and any migrated bytes that land on
pages holding no live tensor (fragmentation, freed tenants) are surfaced
in ``totals`` as ``*_unattributed`` rather than silently dropped.
"""

from __future__ import annotations

import heapq
import json
import random
from bisect import bisect_left, insort
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.mem.devices import DeviceKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mem.machine import Machine
    from repro.mem.page import PageTableEntry
    from repro.obs.trace import TraceEvent
    from repro.sim.channel import Transfer

#: Schema identifier stamped into every artifact this module writes.
INSIGHT_SCHEMA = "insight-report/v1"

#: Migration tags that mark speculative (prefetch-style) promotions for the
#: wasted-prefetch accounting.  Matching is by substring so policy-specific
#: tags ("capuchin-prefetch", "vdnn-prefetch", ...) are covered.
_PREFETCH_MARK = "prefetch"

#: Serve-side SLO aggregation: the attainment objective, the width of one
#: aggregation window (simulated seconds), the burn rate (multiple of the
#: error budget) that raises an alert, and how many windows the long
#: burn-rate horizon spans.
SLO_OBJECTIVE = 0.95
SERVE_WINDOW = 0.05
BURN_THRESHOLD = 2.0
BURN_LONG_WINDOWS = 6

#: Heat thresholds, in *layers since last touch* (a global layer counter
#: across the run) rather than simulated seconds, so one classification
#: works across models and platforms: fast-tier bytes touched within
#: ``HOT_LAYERS`` layers are hot, within ``WARM_LAYERS`` warm, else cold.
HOT_LAYERS = 1
WARM_LAYERS = 8

#: Job names the reservoir keeps for trace retention, and the sampler's seed.
RESERVOIR_SIZE = 8
RESERVOIR_SEED = 1


#: Width (log2, in pages) of the buckets that index a span's pages after
#: its first one.
_BUCKET_SHIFT = 10


class _PageSpan:
    """Pages [lo, hi) backing ``nbytes`` of one live tensor episode.

    ``seq`` numbers spans in creation order, the order a landed migration
    visits them in.
    """

    __slots__ = ("lo", "hi", "nbytes", "state", "seq")

    def __init__(
        self, lo: int, hi: int, nbytes: int, state: "_TensorState", seq: int
    ) -> None:
        self.lo = lo
        self.hi = hi
        self.nbytes = nbytes
        self.state = state
        self.seq = seq


_creation = attrgetter("seq")


def _later_buckets(span: _PageSpan) -> range:
    """The buckets that the pages of ``span`` after its first one touch."""
    if span.hi - span.lo < 2:
        return range(0)
    return range((span.lo + 1) >> _BUCKET_SHIFT, ((span.hi - 1) >> _BUCKET_SHIFT) + 1)


class _SpanIndex:
    """The live page spans, found by the pages they hold.

    Spans may nest or partly overlap (arena slabs hold many tenants, a
    partial migration or a RAS retirement splits a run after its tenants
    were mapped), so a span overlapping ``[lo, hi)`` either starts inside
    it or holds page ``lo`` past its own first page.  The first kind is
    found by bisecting the sorted distinct starts; the second in the
    bucket of page ``lo``, where every span is entered for each bucket
    its pages after the first touch.  Both maps hold ``{seq: span}`` in
    creation order.
    """

    __slots__ = ("_starts", "_at", "_past")

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._at: Dict[int, Dict[int, _PageSpan]] = {}
        self._past: Dict[int, Dict[int, _PageSpan]] = {}

    def add(self, span: _PageSpan) -> None:
        at = self._at.get(span.lo)
        if at is None:
            at = self._at[span.lo] = {}
            insort(self._starts, span.lo)
        at[span.seq] = span
        past = self._past
        for bucket in _later_buckets(span):
            held = past.get(bucket)
            if held is None:
                past[bucket] = {span.seq: span}
            else:
                held[span.seq] = span

    def remove(self, span: _PageSpan) -> None:
        at = self._at[span.lo]
        del at[span.seq]
        if not at:
            del self._at[span.lo]
            starts = self._starts
            del starts[bisect_left(starts, span.lo)]
        past = self._past
        for bucket in _later_buckets(span):
            held = past[bucket]
            del held[span.seq]
            if not held:
                del past[bucket]

    def overlapping(self, lo: int, hi: int) -> Sequence[_PageSpan]:
        """Every live span sharing a page with ``[lo, hi)``, oldest first."""
        starts = self._starts
        first = bisect_left(starts, lo)
        last = bisect_left(starts, hi, first)
        held = self._past.get(lo >> _BUCKET_SHIFT)
        hits = (
            [span for span in held.values() if span.lo < lo < span.hi]
            if held
            else []
        )
        if not hits and last - first == 1:
            return self._at[starts[first]].values()
        for start in starts[first:last]:
            hits.extend(self._at[start].values())
        hits.sort(key=_creation)
        return hits


class _TensorState:
    """One allocation episode of one tensor in one scope."""

    __slots__ = (
        "scope",
        "tid",
        "name",
        "kind",
        "nbytes",
        "preallocated",
        "episode",
        "alloc",
        "free",
        "fast_bytes",
        "seg_start",
        "segments",
        "accesses",
        "bytes_touched",
        "last_touch_layer",
        "heat",
        "lineage",
        "prefetch_pending",
        "wasted_prefetch",
        "migrated_bytes",
        "pingpong",
        "stall",
        "spans",
    )

    def __init__(
        self,
        scope: str,
        tid: int,
        name: str,
        kind: str,
        nbytes: int,
        preallocated: bool,
        episode: int,
        alloc: float,
        fast_bytes: float,
        layer: int,
    ) -> None:
        self.scope = scope
        self.tid = tid
        self.name = name
        self.kind = kind
        self.nbytes = nbytes
        self.preallocated = preallocated
        self.episode = episode
        self.alloc = alloc
        self.free: Optional[float] = None
        self.fast_bytes = fast_bytes
        self.seg_start = alloc
        #: flat (start, end, fast bytes) triples: no tuple per segment
        self.segments: Sequence[float] = []
        self.accesses = 0
        self.bytes_touched = 0
        self.last_touch_layer = layer
        #: flat (step, accesses, bytes) triples, one per run of accesses
        #: in the same step
        self.heat: Sequence[int] = []
        #: a list from the first landed migration on
        self.lineage: Sequence[Dict[str, Any]] = ()
        self.prefetch_pending = 0.0
        self.wasted_prefetch = 0.0
        self.migrated_bytes = 0.0
        self.pingpong = 0
        self.stall = 0.0
        #: this episode's page spans; emptied when it retires
        self.spans: Sequence[_PageSpan] = []

    def close_segment(self, now: float) -> None:
        if now > self.seg_start:
            self.segments += (self.seg_start, now, self.fast_bytes)
            self.seg_start = now


class InsightScope:
    """Per-executor adapter binding hooks to a named scope.

    Implements the :class:`repro.dnn.executor.StepObserver` protocol,
    per-access :meth:`record` included (duck-typed — no executor import, so
    the dependency points obs-ward only).  Every executor on a machine
    with a collector attaches one scope named after its track, which keeps
    tensor ids from different jobs/workloads apart.
    """

    __slots__ = ("_collector", "name")

    def __init__(self, collector: "InsightCollector", name: str) -> None:
        self._collector = collector
        self.name = name

    # -- StepObserver protocol -------------------------------------------
    def on_step_start(self, step: int, now: float) -> None:
        self._collector._settle(now)

    def on_tensor_allocated(self, tensor: Any, mapping: Any, now: float) -> None:
        self._collector._on_alloc(self.name, tensor, mapping, now)

    def on_tensor_freed(self, tensor: Any, mapping: Any, now: float) -> None:
        self._collector._on_free(self.name, tensor, now)

    def on_layer_end(self, layer: Any, now: float) -> None:
        self._collector._on_layer_end(now)

    def on_step_end(self, step: int, result: Any) -> None:
        self._collector._on_step_end(result.end_time)

    def record(self, step: int, layer: Any, op: Any, access: Any, charge: Any, now: float) -> None:
        collector = self._collector
        flips = collector._flips
        if flips and flips[0][0] <= now:
            collector._settle(now)
        state = collector._live.get((self.name, access.tensor.tid))
        if state is None:
            return
        nbytes = access.nbytes * access.passes
        state.accesses += 1
        state.bytes_touched += nbytes
        state.last_touch_layer = collector._layer_seq
        heat = state.heat
        if heat and heat[-3] == step:
            heat[-2] += 1
            heat[-1] += nbytes
        else:
            heat += (step, 1, nbytes)
        # The prefetched copy got used: it was not wasted.
        state.prefetch_pending = 0.0


class InsightCollector:
    """Collects tensor-level analytics from executor/migration hooks.

    Wire-up (mirrors the pressure/RAS pattern):

    * ``Machine(insight=collector)`` — or ``Machine.for_platform`` — sets
      ``machine.migration.insight`` so promote/demote/discard/materialize
      notify the collector;
    * every :class:`~repro.dnn.executor.Executor` built on that machine
      attaches its own :meth:`scope` as an observer;
    * after the run, :meth:`finalize` closes open timelines and
      :meth:`report` emits the canonical artifact dict.

    The collector emits no trace events and touches no counters, so an
    attached tracer/metrics registry stays byte-identical to an
    insight-free run.
    """

    def __init__(self) -> None:
        self._machine: Optional["Machine"] = None
        self._live: Dict[Tuple[str, int], _TensorState] = {}
        self._done: List[_TensorState] = []
        self._episodes: Dict[Tuple[str, int], int] = {}
        self._spans = _SpanIndex()
        self._span_seq = 0
        #: min-heap of (finish, seq, event_index, [(lo, hi), ...])
        self._flips: List[Tuple[float, int, int, List[Tuple[int, int]]]] = []
        self._flip_seq = 0
        self._events: List[Dict[str, Any]] = []
        self._samples: List[Tuple[float, float, float, float, float, int]] = []
        self._layer_seq = 0
        self._finalized_at: Optional[float] = None
        self._dropped_flips = 0
        # serve-side aggregation
        self._serve_buckets: Dict[int, List[int]] = {}
        self._reservoir: List[str] = []
        self._jobs_seen = 0
        self._job_scopes: set = set()
        self._res_rng = random.Random(RESERVOIR_SEED)

    # ------------------------------------------------------------- wiring

    def bind(self, machine: "Machine") -> None:
        """Attach the machine whose fast tier the occupancy samples read."""
        if self._machine is not None and self._machine is not machine:
            raise ValueError("insight collector is already bound to a machine")
        self._machine = machine

    def scope(self, name: str) -> InsightScope:
        """Observer adapter for one executor (one tid namespace)."""
        return InsightScope(self, name)

    # ------------------------------------------------------ tensor hooks

    def _on_alloc(self, scope: str, tensor: Any, mapping: Any, now: float) -> None:
        flips = self._flips
        if flips and flips[0][0] <= now:
            self._settle(now)
        key = (scope, tensor.tid)
        episode = self._episodes.get(key, 0)
        self._episodes[key] = episode + 1
        kind = getattr(tensor.kind, "_name_", None)  # an enum member's name
        if kind is None:
            kind = str(tensor.kind)
        state = _TensorState(
            scope=scope,
            tid=tensor.tid,
            name=tensor.name,
            kind=kind,
            nbytes=tensor.nbytes,
            preallocated=bool(tensor.preallocated),
            episode=episode,
            alloc=now,
            fast_bytes=0.0,
            layer=self._layer_seq,
        )
        fast = 0.0
        spans = state.spans
        index = self._spans
        for share in mapping.shares:
            if share.nbytes <= 0:
                continue
            run = share.run
            if run.effective_device(now) is DeviceKind.FAST:
                fast += share.nbytes
            span = _PageSpan(
                run.vpn, run.vpn + run.npages, share.nbytes, state, self._span_seq
            )
            self._span_seq += 1
            spans.append(span)
            index.add(span)
        state.fast_bytes = fast
        self._live[key] = state

    def _on_free(self, scope: str, tensor: Any, now: float) -> None:
        flips = self._flips
        if flips and flips[0][0] <= now:
            self._settle(now)
        state = self._live.pop((scope, tensor.tid), None)
        if state is None:
            return
        self._retire_state(state, now)

    def _retire_state(self, state: _TensorState, now: float) -> None:
        state.close_segment(max(now, state.seg_start))
        if not state.segments:
            # Zero-length lifetime (alloc and free at the same instant):
            # record one empty-duration segment so the timeline is explicit.
            state.segments += (state.alloc, now, state.fast_bytes)
        state.free = now
        # Prefetched bytes the tensor died without touching are wasted.
        state.wasted_prefetch += state.prefetch_pending
        state.prefetch_pending = 0.0
        remove = self._spans.remove
        for span in state.spans:
            remove(span)
        state.spans = ()
        # A retired episode's lists never grow again, and tuples take less
        # memory: a run keeps every episode until its report.
        state.segments = tuple(state.segments)
        state.heat = tuple(state.heat)
        state.lineage = tuple(state.lineage)
        self._done.append(state)

    # ---------------------------------------------------- migration hooks

    def on_migration(
        self,
        direction: str,
        runs: Sequence["PageTableEntry"],
        transfer: "Transfer",
        page_size: int,
        tag: object,
        urgent: bool,
        now: float,
    ) -> None:
        """Called by the migration engine at promote/demote submission.

        Residency flips are queued for ``transfer.finish`` — the instant
        ``effective_device`` starts answering with the destination tier —
        and applied lazily before the next hook observes state.
        """
        self._settle(min(now, transfer.start))
        ranges = [(run.vpn, run.vpn + run.npages) for run in runs]
        nbytes = sum(run.npages for run in runs) * page_size
        event = {
            "kind": direction,
            "start": transfer.start,
            "finish": transfer.finish,
            "nbytes": nbytes,
            "tag": None if tag is None else str(tag),
            "urgent": bool(urgent),
            "attributed": 0.0,
        }
        index = len(self._events)
        self._events.append(event)
        heapq.heappush(
            self._flips, (transfer.finish, self._flip_seq, index, ranges)
        )
        self._flip_seq += 1

    def on_instant_flip(
        self, kind: str, run: "PageTableEntry", nbytes: int, now: float
    ) -> None:
        """Discard/materialize: the run changes tier with no copy, now."""
        self._settle(now)
        event = {
            "kind": kind,
            "start": now,
            "finish": now,
            "nbytes": nbytes,
            "tag": None,
            "urgent": False,
            "attributed": 0.0,
        }
        index = len(self._events)
        self._events.append(event)
        self._apply_flip(now, index, [(run.vpn, run.vpn + run.npages)])

    # -------------------------------------------------------- flip engine

    def _settle(self, now: float) -> None:
        """Apply every queued residency flip that has landed by ``now``."""
        while self._flips and self._flips[0][0] <= now:
            finish, _, index, ranges = heapq.heappop(self._flips)
            self._apply_flip(finish, index, ranges)

    def _apply_flip(
        self, when: float, event_index: int, ranges: List[Tuple[int, int]]
    ) -> None:
        event = self._events[event_index]
        promote = event["kind"] in ("promote", "materialize")
        prefetch = bool(event["tag"]) and _PREFETCH_MARK in event["tag"]
        # Tensors in the order their first overlapping span was created;
        # each one's bytes add up range by range, span by span, in that
        # same order, so the float sums repeat bit for bit.
        moved_by_state: Dict[_TensorState, float] = {}
        overlapping = self._spans.overlapping
        for lo, hi in ranges:
            for span in overlapping(lo, hi):
                overlap = min(span.hi, hi) - max(span.lo, lo)
                moved = span.nbytes * overlap / (span.hi - span.lo)
                if moved <= 0.0:
                    continue
                state = span.state
                prev = moved_by_state.get(state)
                moved_by_state[state] = moved if prev is None else prev + moved
        for state, moved in moved_by_state.items():
            state.close_segment(when)
            if promote:
                state.fast_bytes = min(state.nbytes, state.fast_bytes + moved)
                if prefetch:
                    state.prefetch_pending += moved
            else:
                # Fast bytes leaving untouched since their prefetch landed
                # are the wasted-prefetch signal.
                if state.prefetch_pending > 0.0:
                    wasted = min(state.prefetch_pending, moved)
                    state.wasted_prefetch += wasted
                    state.prefetch_pending -= wasted
                state.fast_bytes = max(0.0, state.fast_bytes - moved)
            state.migrated_bytes += moved
            entry = {
                "t": when,
                "start": event["start"],
                "kind": event["kind"],
                "bytes": moved,
                "tag": event["tag"],
                "urgent": event["urgent"],
                "pingpong": False,
            }
            if state.lineage:
                state.lineage.append(entry)
            else:
                state.lineage = [entry]
            event["attributed"] += moved

    # ---------------------------------------------------------- sampling

    def _on_layer_end(self, now: float) -> None:
        self._layer_seq += 1
        self._settle(now)
        self._sample(now)

    def _on_step_end(self, now: float) -> None:
        self._settle(now)
        self._sample(now)

    def _sample(self, now: float) -> None:
        if self._machine is None:
            return
        hot = warm = cold = 0.0
        for state in self._live.values():
            if state.fast_bytes <= 0.0:
                continue
            age = self._layer_seq - state.last_touch_layer
            if age <= HOT_LAYERS:
                hot += state.fast_bytes
            elif age <= WARM_LAYERS:
                warm += state.fast_bytes
            else:
                cold += state.fast_bytes
        occupancy = self._machine.fast.used
        other = occupancy - hot - warm - cold
        sample = (now, hot, warm, cold, other, occupancy)
        if self._samples and self._samples[-1][0] == now:
            self._samples[-1] = sample
        else:
            self._samples.append(sample)

    # -------------------------------------------------------- serve hooks

    def on_attempt_end(self, scope: str, now: float) -> None:
        """A job attempt tore down: close its tensors' open timelines.

        ``Executor.teardown`` frees pages without observer callbacks, so
        the serving layer notifies the collector here instead.
        """
        self._settle(now)
        for key in [k for k in self._live if k[0] == scope]:
            self._retire_state(self._live.pop(key), now)

    def on_job_final(self, job: Any, now: float) -> None:
        """A job reached a terminal state: aggregate its SLO outcome."""
        self.on_attempt_end(job.name, now)
        self._job_scopes.add(job.name)
        bucket = int(now // SERVE_WINDOW)
        cell = self._serve_buckets.setdefault(bucket, [0, 0])
        cell[1] += 1
        if job.slo_met:
            cell[0] += 1
        # Reservoir-sample job names for bounded trace retention.
        self._jobs_seen += 1
        if len(self._reservoir) < RESERVOIR_SIZE:
            self._reservoir.append(job.name)
        else:
            slot = self._res_rng.randrange(self._jobs_seen)
            if slot < RESERVOIR_SIZE:
                self._reservoir[slot] = job.name

    def retained_events(
        self, events: Sequence["TraceEvent"]
    ) -> List["TraceEvent"]:
        """Filter a trace to the reservoir-sampled jobs plus shared tracks.

        Events on tracks belonging to finalized jobs *not* in the reservoir
        are dropped; machine-level tracks (migration, channels, serve, ...)
        pass through untouched.
        """
        keep = set(self._reservoir)
        return [
            event
            for event in events
            if event.track not in self._job_scopes or event.track in keep
        ]

    # ---------------------------------------------------------- finalize

    def finalize(self, now: float) -> None:
        """Close every open timeline; idempotent after the first call."""
        if self._finalized_at is not None:
            return
        self._settle(now)
        self._dropped_flips = len(self._flips)
        self._flips = []
        for key in sorted(self._live, key=lambda k: (k[0], k[1])):
            self._retire_state(self._live.pop(key), now)
        for state in self._done:
            if len(state.lineage) > 2:
                self._flag_pingpong(state)
        self._finalized_at = now

    def _flag_pingpong(self, state: _TensorState) -> None:
        moves = [
            entry for entry in state.lineage if entry["kind"] in ("promote", "demote")
        ]
        count = 0
        for j in range(len(moves) - 2):
            a, b, c = moves[j], moves[j + 1], moves[j + 2]
            if (
                a["kind"] == "promote"
                and b["kind"] == "demote"
                and c["kind"] == "promote"
            ):
                a["pingpong"] = b["pingpong"] = c["pingpong"] = True
                count += 1
        state.pingpong = count

    # ------------------------------------------------------------ report

    def summary(self) -> Dict[str, float]:
        """Scalar rollups for ``RunMetrics.extras`` (post-finalize)."""
        if self._finalized_at is None:
            raise ValueError("finalize() the collector before summary()")
        return {
            "insight.tensor_episodes": float(len(self._done)),
            "insight.pingpong_events": float(
                sum(state.pingpong for state in self._done)
            ),
            "insight.pingpong_tensors": float(
                sum(1 for state in self._done if state.pingpong)
            ),
            "insight.wasted_prefetch_bytes": float(
                sum(state.wasted_prefetch for state in self._done)
            ),
            "insight.migration_events": float(len(self._events)),
        }

    def report(self, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The canonical artifact dict (call :meth:`finalize` first)."""
        if self._finalized_at is None:
            raise ValueError("finalize() the collector before report()")
        tensors = sorted(
            self._done, key=lambda s: (s.scope, s.tid, s.episode)
        )
        totals: Dict[str, float] = {}
        for event in self._events:
            kind = event["kind"]
            totals[f"{kind}_events"] = totals.get(f"{kind}_events", 0) + 1
            totals[f"{kind}_bytes"] = totals.get(f"{kind}_bytes", 0) + event["nbytes"]
            totals[f"{kind}_attributed"] = (
                totals.get(f"{kind}_attributed", 0.0) + event["attributed"]
            )
        for kind in ("promote", "demote", "discard", "materialize"):
            if f"{kind}_bytes" in totals:
                totals[f"{kind}_unattributed"] = (
                    totals[f"{kind}_bytes"] - totals[f"{kind}_attributed"]
                )
        payload: Dict[str, Any] = {
            "schema": INSIGHT_SCHEMA,
            "meta": dict(meta) if meta else {},
            "config": {
                "hot_layers": HOT_LAYERS,
                "warm_layers": WARM_LAYERS,
                # The ping-pong detector has no time window; the key stays
                # so the report's config section keeps its shape.
                "pingpong_window": None,
                "slo_objective": SLO_OBJECTIVE,
                "serve_window": SERVE_WINDOW,
                "burn_threshold": BURN_THRESHOLD,
                "reservoir_size": RESERVOIR_SIZE,
            },
            "finalized_at": self._finalized_at,
            "dropped_flips": self._dropped_flips,
            "tensors": [self._tensor_row(state) for state in tensors],
            "occupancy": [list(sample) for sample in self._samples],
            "migrations": [
                {key: event[key] for key in sorted(event)} for event in self._events
            ],
            "totals": totals,
        }
        serve = self._serve_section()
        if serve is not None:
            payload["serve"] = serve
        return payload

    def _tensor_row(self, state: _TensorState) -> Dict[str, Any]:
        segments = state.segments
        heat: Dict[int, List[int]] = {}
        flat = state.heat
        for index in range(0, len(flat), 3):
            cell = heat.get(flat[index])
            if cell is None:
                heat[flat[index]] = [flat[index + 1], flat[index + 2]]
            else:
                cell[0] += flat[index + 1]
                cell[1] += flat[index + 2]
        return {
            "scope": state.scope,
            "tid": state.tid,
            "episode": state.episode,
            "name": state.name,
            "kind": state.kind,
            "nbytes": state.nbytes,
            "preallocated": state.preallocated,
            "alloc": state.alloc,
            "free": state.free,
            "residency": [
                list(segments[index : index + 3])
                for index in range(0, len(segments), 3)
            ],
            "accesses": state.accesses,
            "bytes_touched": state.bytes_touched,
            "heat": {str(step): cell for step, cell in sorted(heat.items())},
            "lineage": [
                {key: entry[key] for key in sorted(entry)}
                for entry in state.lineage
            ],
            "migrated_bytes": state.migrated_bytes,
            "pingpong": state.pingpong,
            "wasted_prefetch_bytes": state.wasted_prefetch,
            "thrash": state.migrated_bytes / max(1, state.bytes_touched),
            "stall": state.stall,
        }

    def _serve_section(self) -> Optional[Dict[str, Any]]:
        if not self._serve_buckets and not self._jobs_seen:
            return None
        buckets = self._serve_buckets
        lo, hi = min(buckets), max(buckets)
        windows: List[Dict[str, Any]] = []
        alerts: List[float] = []
        for b in range(lo, hi + 1):
            ok, total = buckets.get(b, [0, 0])
            attainment = ok / total if total else None
            burn = (
                ((total - ok) / total) / (1.0 - SLO_OBJECTIVE) if total else None
            )
            span_ok = span_total = 0
            for back in range(b - BURN_LONG_WINDOWS + 1, b + 1):
                cell = buckets.get(back)
                if cell is not None:
                    span_ok += cell[0]
                    span_total += cell[1]
            burn_long = (
                ((span_total - span_ok) / span_total) / (1.0 - SLO_OBJECTIVE)
                if span_total
                else None
            )
            alert = bool(
                total
                and burn is not None
                and burn >= BURN_THRESHOLD
                and burn_long is not None
                and burn_long >= BURN_THRESHOLD
            )
            if alert:
                alerts.append(b * SERVE_WINDOW)
            windows.append(
                {
                    "t0": b * SERVE_WINDOW,
                    "t1": (b + 1) * SERVE_WINDOW,
                    "jobs": total,
                    "ok": ok,
                    "attainment": attainment,
                    "burn": burn,
                    "burn_long": burn_long,
                    "alert": alert,
                }
            )
        return {
            "window": SERVE_WINDOW,
            "objective": SLO_OBJECTIVE,
            "threshold": BURN_THRESHOLD,
            "jobs": self._jobs_seen,
            "windows": windows,
            "alerts": alerts,
            "sampled_jobs": sorted(self._reservoir),
        }


# ----------------------------------------------------------- critpath join


def join_stall_attribution(report: Dict[str, Any], attribution: Any) -> None:
    """Distribute per-step migration stall onto tensors, in place.

    Each :class:`repro.obs.critpath.StepAttribution`'s ``migration_stall``
    is split across the tensors whose migrations landed inside the step's
    wall-span, in proportion to their in-step migrated bytes — the same
    proportionality the policies' stall charging uses.  Tensors without
    in-step migrations receive nothing; the per-step residual (stall with
    no attributable migration bytes) is recorded in
    ``report["totals"]["stall_unattributed"]``.
    """
    unattributed = 0.0
    for step in attribution.steps:
        stall = step.migration_stall
        if stall <= 0.0:
            continue
        weights: List[Tuple[Dict[str, Any], float]] = []
        total_bytes = 0.0
        for row in report["tensors"]:
            in_step = sum(
                entry["bytes"]
                for entry in row["lineage"]
                if step.start <= entry["t"] <= step.end
            )
            if in_step > 0.0:
                weights.append((row, in_step))
                total_bytes += in_step
        if total_bytes <= 0.0:
            unattributed += stall
            continue
        for row, in_step in weights:
            row["stall"] += stall * in_step / total_bytes
    report["totals"]["stall_unattributed"] = unattributed


# ------------------------------------------------------------- canonical IO


def insight_json(report: Dict[str, Any]) -> str:
    """The byte-stable canonical JSON form of an insight artifact."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def write_insight(report: Dict[str, Any], path: str) -> None:
    """Write the canonical artifact to ``path``."""
    with open(path, "w") as handle:
        handle.write(insight_json(report))


def validate_insight(obj: Any) -> int:
    """Validate a loaded insight artifact; returns the tensor-row count.

    Checks the schema id, the presence and shape of every top-level
    section, residency-timeline contiguity, and the occupancy identity
    ``hot + warm + cold + other == occupancy`` per sample.  Raises
    :class:`ValueError` naming the first violation.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"artifact must be a JSON object, got {type(obj).__name__}")
    if obj.get("schema") != INSIGHT_SCHEMA:
        raise ValueError(f"schema must be {INSIGHT_SCHEMA!r}, got {obj.get('schema')!r}")
    for key in ("config", "tensors", "occupancy", "migrations", "totals"):
        if key not in obj:
            raise ValueError(f"artifact is missing section {key!r}")
    for index, row in enumerate(obj["tensors"]):
        where = f"tensors[{index}]"
        for key in ("scope", "tid", "nbytes", "alloc", "residency", "lineage"):
            if key not in row:
                raise ValueError(f"{where}: missing key {key!r}")
        segments = row["residency"]
        if not segments:
            raise ValueError(f"{where}: empty residency timeline")
        if segments[0][0] != row["alloc"]:
            raise ValueError(
                f"{where}: timeline starts at {segments[0][0]!r}, "
                f"allocated at {row['alloc']!r}"
            )
        for s_index in range(1, len(segments)):
            if segments[s_index][0] != segments[s_index - 1][1]:
                raise ValueError(
                    f"{where}: residency gap between segments "
                    f"{s_index - 1} and {s_index}"
                )
        if row["free"] is not None and segments[-1][1] != row["free"]:
            raise ValueError(
                f"{where}: timeline ends at {segments[-1][1]!r}, "
                f"freed at {row['free']!r}"
            )
        for s_index, (_, _, fast) in enumerate(segments):
            if fast < -1e-6 or fast > row["nbytes"] * (1 + 1e-9) + 1e-6:
                raise ValueError(
                    f"{where}: segment {s_index} fast bytes {fast!r} outside "
                    f"[0, {row['nbytes']}]"
                )
    for s_index, sample in enumerate(obj["occupancy"]):
        if len(sample) != 6:
            raise ValueError(f"occupancy[{s_index}]: expected 6 fields")
        _, hot, warm, cold, other, occupancy = sample
        if abs(hot + warm + cold + other - occupancy) > 1e-6:
            raise ValueError(
                f"occupancy[{s_index}]: hot+warm+cold+other != occupancy"
            )
    return len(obj["tensors"])
