"""The Sentinel runtime policy (paper §IV, §VI).

Lifecycle across training steps, exactly as implemented in the paper:

1. **Warm-up** — the first ``warmup_steps`` (10) steps run untouched:
   TensorFlow-default packed allocation, everything on slow memory.
2. **Profiling** — step 11 runs with page-aligned allocation and poisoned
   PTEs; the embedded :class:`~repro.core.profiler.ProfileCollector`
   attributes every main-memory access to a tensor and a layer.
3. **Managed** — from step 12 on:

   * allocation is *reorganized*: short-lived tensors co-allocate per
     layer, long-lived tensors co-allocate per exact lifetime, preallocated
     tensors never share pages (§IV-B);
   * short-lived tensors are placed in a reserved fast-memory pool and
     never migrate (§IV-C);
   * long-lived tensors are prefetched one migration interval ahead in
     descending access-count order, and eagerly demoted mid-interval once
     the remaining layers no longer need them (§IV-D);
   * the interval length comes from the Eq. 1/Eq. 2 performance model, and
     Case 3 (migration not done when the interval starts) is resolved by
     the paper's test-and-trial: one step waiting, one step leaving the
     tensors in slow memory, keep the faster choice.

Every mechanism can be disabled independently through
:class:`SentinelConfig`, which is how the Figure 13 ablation
("direct migration" / "+ determined MI" / "all") is produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.interval import IntervalPlan, choose_interval_length, evaluate_interval_length
from repro.core.profile import Profile
from repro.core.profiler import ProfileCollector
from repro.dnn.alloc import Allocator, GroupedAllocator, TensorMapping
from repro.dnn.graph import Layer
from repro.dnn.policy import PlacementPolicy, fits_fast
from repro.dnn.tensor import Tensor
from repro.mem.devices import DeviceKind
from repro.mem.page import PageTableEntry
from repro.sim.channel import Transfer
from repro.sim.engine import EventKind

#: Policy lifecycle modes.
WARMUP = "warmup"
PROFILING = "profiling"
MANAGED = "managed"

#: Bounded re-profiling: if the profiling step lost more than
#: ``REPROFILE_LOSS_THRESHOLD`` of its fault samples (injected handler
#: overflow), spend up to ``MAX_REPROFILE_STEPS`` extra steps re-profiling
#: before accepting the lossy profile as-is.
MAX_REPROFILE_STEPS = 1
REPROFILE_LOSS_THRESHOLD = 0.02


@dataclass
class SentinelConfig:
    """Feature switches and tunables for the Sentinel policy.

    The defaults are full Sentinel; the Figure 13 ablations are:

    * direct migration — ``interval_opt=False, reserve_short=False,
      co_allocate=False``
    * "w/ det. MI"    — ``interval_opt=True, reserve_short=False,
      co_allocate=False``
    * "w/ all"        — the defaults

    Re-profiling after a lossy profiling step is bounded by the module
    constants :data:`MAX_REPROFILE_STEPS` and
    :data:`REPROFILE_LOSS_THRESHOLD`, not by this config.
    """

    warmup_steps: int = 10
    co_allocate: bool = True
    reserve_short: bool = True
    interval_opt: bool = True
    #: pin the interval length (Figure 5 sweeps); overrides the optimizer
    fixed_interval_length: Optional[int] = None
    #: CPU Case-3 handling; GPU forces waiting regardless
    test_and_trial: bool = True
    #: Case-3 patience budget (seconds of simulated time): if finishing the
    #: pending prefetch would stall longer than this, the runtime falls back
    #: to running the interval against the slow copies instead of waiting.
    #: ``None`` (default) keeps the paper's behaviour of unbounded waits.
    case3_wait_deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.warmup_steps < 0:
            raise ValueError(f"warmup steps must be >= 0: {self.warmup_steps!r}")
        if self.fixed_interval_length is not None and self.fixed_interval_length <= 0:
            raise ValueError(
                f"fixed interval length must be positive: "
                f"{self.fixed_interval_length!r}"
            )
        if self.case3_wait_deadline is not None and self.case3_wait_deadline <= 0:
            raise ValueError(
                f"case3 wait deadline must be positive: "
                f"{self.case3_wait_deadline!r}"
            )


@dataclass
class _Case3State:
    """Test-and-trial bookkeeping for one interval index (§IV-D)."""

    status: str = "trial_wait"  # trial_wait -> trial_leave -> decided
    choice: str = "wait"
    wait_step: Optional[int] = None
    leave_step: Optional[int] = None
    wait_duration: Optional[float] = None
    leave_duration: Optional[float] = None


class SentinelPolicy(PlacementPolicy):
    """Sentinel on CPU-style heterogeneous memory (DRAM + Optane)."""

    name = "sentinel"
    requires_residency: Optional[bool] = False

    def __init__(self, config: Optional[SentinelConfig] = None) -> None:
        super().__init__()
        self.config = config if config is not None else SentinelConfig()
        self.mode = WARMUP
        self.profile: Optional[Profile] = None
        self.plan: Optional[IntervalPlan] = None
        self.allocator: Optional[Allocator] = None
        self._collector: Optional[ProfileCollector] = None
        self._mappings: Dict[int, TensorMapping] = {}
        self._current_layer = 0
        self._step = -1
        self._step_start = 0.0
        self._step_durations: Dict[int, float] = {}
        self._short_fast_bytes = 0
        self._alloc_demand = 0
        self._alloc_demand_by_layer: List[int] = []
        self._prefetch: Dict[int, List[Transfer]] = {}
        self._pending_prefetch: Dict[int, List[PageTableEntry]] = {}
        self._skip_prefetch: Set[int] = set()
        self._case3: Dict[int, _Case3State] = {}
        self._trial_active: Optional[int] = None
        #: overhead accounting for Table III
        self.profiling_steps_used = 0
        self.trial_steps_used = 0
        self.case2_occurrences = 0
        self.case3_occurrences = 0
        #: degradation accounting (fault-injection experiments)
        self.reprofile_steps_used = 0
        self.case3_fallbacks = 0
        self._profile_fault_base = (0, 0)
        #: event-driven prefetch bookkeeping, fed by TRANSFER_DONE
        #: subscriptions when an engine drives the run (Table III
        #: cross-check: landed == issued - aborted for fault-free runs)
        self.prefetch_landed_bytes = 0
        self.prefetch_landed_transfers = 0
        #: per-interval prefetch candidate tids in hotness order, a pure
        #: function of (profile, plan) — see :meth:`_interval_candidates`
        self._interval_candidate_tids: Optional[List[Tuple[int, ...]]] = None
        #: per-layer eviction candidates with their
        #: sort keys, a pure function of (profile, plan, config) — see
        #: :meth:`_evict_candidates`
        self._evict_candidates_by_layer: Dict[int, Tuple[Tuple[int, int], ...]] = {}

    def on_engine(self, engine) -> None:
        """Subscribe prefetch bookkeeping to channel-completion events.

        Counts the bytes of every prefetch-tagged transfer at the instant
        its last byte lands.  Pure internal accounting — no trace or
        metrics emission — so engine-driven runs keep the golden digests.
        """

        def on_done(event) -> None:
            transfer = event.payload.get("transfer")
            if transfer is None or transfer.aborted:
                return
            if transfer.tag == "prefetch":
                self.prefetch_landed_bytes += transfer.nbytes
                self.prefetch_landed_transfers += 1

        engine.subscribe(EventKind.TRANSFER_DONE, on_done)

    @property
    def _tracer(self):
        """The machine's event tracer, or ``None`` when tracing is off."""
        machine = self.machine
        return machine.tracer if machine is not None else None

    # ----------------------------------------------------------- allocation

    def make_allocator(self) -> Allocator:
        assert self.machine is not None
        self.allocator = GroupedAllocator(self.machine, self.place, self._group_of)
        return self.allocator

    def _group_of(self, tensor: Tensor):
        """Sentinel's co-allocation rules (paper §IV-B).

        Preallocated tensors never share pages in any phase; during
        profiling nothing shares (tensor-level counting); once managed,
        short-lived tensors share per layer and long-lived tensors share
        per exact lifetime; long and short never mix.
        """
        if tensor.preallocated:
            return None
        if self.mode == PROFILING:
            return None
        if self.mode == WARMUP or not self.config.co_allocate:
            return "arena"
        if tensor.short_lived:
            return ("short", tensor.alloc_layer)
        return ("long", tensor.alloc_layer, tensor.free_layer)

    def place(self, tensor: Tensor, now: float) -> DeviceKind:
        """Placement of fresh runs; slow until managed, then §IV-C/D rules."""
        machine = self.machine
        assert machine is not None
        if self.mode != MANAGED:
            return DeviceKind.SLOW
        if tensor.short_lived:
            if self.config.reserve_short:
                # The reservation guarantees room (RS >= the pool's peak);
                # falling through to slow would mean a misconfigured machine
                # below the paper's lower bound on fast memory.
                if fits_fast(machine, tensor.nbytes):
                    return DeviceKind.FAST
                return DeviceKind.SLOW
            return (
                DeviceKind.FAST
                if fits_fast(machine, tensor.nbytes)
                else DeviceKind.SLOW
            )
        # A long-lived tensor is created by the op running *right now*: its
        # writes and in-layer reads are imminent, so it belongs in fast
        # whenever there is room at all — the eager-eviction pass is
        # responsible for keeping that room available, and the short-lived
        # reservation is protected from *prefetch*, not from the working
        # set (both are "tensors needed by upcoming operations", §IV-D).
        if fits_fast(machine, tensor.nbytes):
            return DeviceKind.FAST
        return DeviceKind.SLOW

    def _reservation_headroom(self) -> int:
        """Fast-memory bytes held back for upcoming short-lived tensors."""
        if not self.config.reserve_short or self.plan is None:
            return 0
        return max(0, self.plan.reserved_short_bytes - self._short_fast_bytes)

    # ------------------------------------------------------------ lifecycle

    def on_step_start(self, step: int, now: float) -> float:
        self._step = step
        self._step_start = now
        self._current_layer = 0
        warmup = self.config.warmup_steps
        if step < warmup:
            self.mode = WARMUP
        elif step == warmup:
            self._begin_profiling()
        elif self.profile is None:
            if self._should_reprofile():
                # The profiling step lost too many fault samples (injected
                # handler overflow): spend one more step re-profiling rather
                # than planning intervals off an under-counted profile.
                self.reprofile_steps_used += 1
                self._begin_profiling()
            else:
                self._finish_profiling()
        return 0.0

    def _begin_profiling(self) -> None:
        machine = self.machine
        assert machine is not None
        self.mode = PROFILING
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                "profiling-begin",
                "step",
                step=self._step,
                reprofile=self.reprofile_steps_used > 0,
            )
        self.profiling_steps_used += 1
        self._interval_candidate_tids = None
        self._evict_candidates_by_layer.clear()
        self._collector = ProfileCollector()
        handler = machine.fault_handler
        self._profile_fault_base = (handler.faults_taken, handler.faults_dropped)
        machine.page_table.poison_all()
        machine.tlb.flush_all()
        # Preallocated tensors are already mapped; register them so their
        # counters are attributed from the first layer on.
        for mapping in self._mappings.values():
            self._collector.on_alloc(mapping.tensor, mapping)

    def _should_reprofile(self) -> bool:
        """Whether the just-finished profiling step was too lossy to trust."""
        if self.reprofile_steps_used >= MAX_REPROFILE_STEPS:
            return False
        machine = self.machine
        assert machine is not None
        handler = machine.fault_handler
        base_taken, base_dropped = self._profile_fault_base
        taken = handler.faults_taken - base_taken
        dropped = handler.faults_dropped - base_dropped
        if taken <= 0 or dropped <= 0:
            return False
        return dropped / taken > REPROFILE_LOSS_THRESHOLD

    def _finish_profiling(self) -> None:
        machine = self.machine
        graph = self.graph
        assert machine is not None and graph is not None
        assert self._collector is not None
        self.profile = self._collector.finalize(graph, machine)
        self._collector = None
        self.plan = self._make_plan()
        # Per-layer demand of fresh long-lived allocations: the space the
        # eviction pass must keep free so new tensors can land in fast.
        demand = [0] * self.profile.num_layers
        for record in self.profile.tensors.values():
            if record.preallocated or record.short_lived:
                continue
            if 0 <= record.alloc_layer < len(demand):
                demand[record.alloc_layer] += record.nbytes
        self._alloc_demand_by_layer = demand
        self._alloc_demand = max(demand, default=0)
        self.mode = MANAGED
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                "profiling-end",
                "step",
                step=self._step,
                interval_length=self.plan.interval_length,
                num_intervals=self.plan.num_intervals,
                reserved_short_bytes=self.plan.reserved_short_bytes,
            )

    def _make_plan(self) -> IntervalPlan:
        machine = self.machine
        assert machine is not None and self.profile is not None
        bandwidth = machine.platform.promote_bandwidth
        capacity = machine.fast.capacity
        if self.config.fixed_interval_length is not None:
            return evaluate_interval_length(
                self.profile, self.config.fixed_interval_length, capacity, bandwidth
            )
        if not self.config.interval_opt:
            # "Direct migration": react one layer ahead, no modelling.
            return evaluate_interval_length(self.profile, 1, capacity, bandwidth)
        return choose_interval_length(self.profile, capacity, bandwidth)

    def on_step_end(self, step: int, now: float) -> float:
        machine = self.machine
        assert machine is not None
        duration = now - self._step_start
        self._step_durations[step] = duration
        if self.mode == PROFILING:
            machine.page_table.unpoison_all()
        self._settle_trials(step)
        self._prefetch.clear()
        self._pending_prefetch.clear()
        return 0.0

    # ---------------------------------------------------------------- hooks

    def on_alloc(self, tensor: Tensor, mapping: TensorMapping, now: float) -> None:
        self._mappings[tensor.tid] = mapping
        if self.mode == PROFILING and self._collector is not None:
            for share in mapping.shares:
                share.run.poisoned = True
            assert self.machine is not None
            self.machine.tlb.flush_all()
            self._collector.on_alloc(tensor, mapping)
        if (
            self.mode == MANAGED
            and tensor.short_lived
            and mapping.shares
            and mapping.shares[0].run.device is DeviceKind.FAST
        ):
            self._short_fast_bytes += tensor.nbytes
            if self.config.reserve_short:
                # §IV-C: the pool's pages are pinned — "tensors in this
                # space are never considered for migration".  The engine
                # refuses to move pinned runs, making the guarantee
                # structural rather than a policy convention.
                for share in mapping.shares:
                    share.run.pinned = True

    def on_free(self, tensor: Tensor, mapping: TensorMapping, now: float) -> None:
        self._mappings.pop(tensor.tid, None)
        if self.mode == PROFILING and self._collector is not None:
            self._collector.on_free(tensor, mapping, self._current_layer)
        if (
            self.mode == MANAGED
            and tensor.short_lived
            and mapping.shares
            and mapping.shares[0].run.device is DeviceKind.FAST
        ):
            self._short_fast_bytes = max(0, self._short_fast_bytes - tensor.nbytes)

    def on_layer_start(self, layer: Layer, now: float) -> float:
        self._current_layer = layer.index
        if self.mode != MANAGED or self.plan is None:
            return 0.0
        if layer.index % self.plan.interval_length != 0:
            return 0.0
        interval = self.plan.interval_of_layer(layer.index)
        stall = self._handle_interval_boundary(interval, now)
        return stall

    def charge_access(self, tensor, mapping, access, now: float):
        charge = super().charge_access(tensor, mapping, access, now)
        if (
            self.mode == MANAGED
            and not self.residency
            and charge.bytes_slow
            and self.profile is not None
        ):
            self._promote_on_access(tensor, mapping, now)
        return charge

    def _promote_on_access(self, tensor, mapping, now: float) -> None:
        """CPU miss path: a long-lived tensor being used from slow memory
        (prefetch could not fit it in time — Case 2 fallout) is promoted
        asynchronously so its remaining passes run at DRAM speed.  This is
        the access-count-ordered use of leftover fast memory §IV-D calls
        for when "certain tensors are left out in slow memory"."""
        record = self.profile.tensors.get(tensor.tid)
        if record is None or record.short_lived:
            return
        if record.next_touch_after(self._current_layer - 1) is None:
            return  # never used again; moving it would be pure waste
        machine = self.machine
        headroom = self._reservation_headroom()
        runs = [
            share.run
            for share in mapping.shares
            if share.run.device is DeviceKind.SLOW
            and not share.run.in_flight
            and share.run.initialized
        ]
        for run in runs:
            nbytes = run.npages * machine.page_size
            if machine.fast.free - headroom < nbytes:
                break
            machine.migration.promote([run], now, tag="on-access", urgent=True)

    def on_layer_end(self, layer: Layer, now: float) -> float:
        if self.mode == PROFILING and self._collector is not None:
            self._collector.on_layer_end(layer.index)
        self._current_layer = layer.index + 1
        if self.mode == MANAGED and self.plan is not None:
            self._evict_unneeded(layer.index, now)
            if self._pending_prefetch:
                self._retry_pending_prefetch(
                    self.plan.interval_of_layer(layer.index), now
                )
        return 0.0

    # --------------------------------------------------- interval machinery

    def _interval_candidates(self) -> List[Tuple[int, ...]]:
        """Per-interval prefetch candidates, hottest first.

        "Which long-lived tensors does interval ``i`` touch, ordered by
        access count" is a pure function of the profile and the plan, so it
        is computed once per plan rather than by scanning all live mappings
        at every interval boundary; callers intersect with the live mapping
        table at use time.  The sort key ``(-total_touches, tid)`` is total
        (tids are unique), so any filtered subsequence keeps that order.
        """
        if self._interval_candidate_tids is None:
            assert self.profile is not None and self.plan is not None
            ordered = sorted(
                (r for r in self.profile.tensors.values() if r.long_lived),
                key=lambda r: (-r.total_touches, r.tid),
            )
            self._interval_candidate_tids = [
                tuple(
                    r.tid
                    for r in ordered
                    if r.touched_in(interval[0], interval[-1])
                )
                for interval in self.plan.intervals
            ]
        return self._interval_candidate_tids

    def _evict_candidates(
        self, layer_index: int, horizon: int, infinity: int
    ) -> Tuple[Tuple[int, int], ...]:
        """Eviction candidates for ``layer_index``, pre-sorted.

        "Which profiled tensors does no layer up to ``horizon`` touch
        again, coldest first": both the time filter and the
        ``(-next_touch, tid)`` sort key are pure functions of (profile,
        plan, layer), so the sorted ``(tid, key)`` pairs are memoized per
        layer; callers re-check liveness and fast-residency, the only
        dynamic parts.  Short-lived tensors are skipped while the reserved
        pool pins them in fast memory (§IV-C); without the reservation
        (ablation) they compete like everything else.
        """
        cached = self._evict_candidates_by_layer.get(layer_index)
        if cached is None:
            assert self.profile is not None
            reserve_short = self.config.reserve_short
            pairs = []
            for tid, record in self.profile.tensors.items():
                if record.short_lived and reserve_short:
                    continue
                next_touch = record.next_touch_after(layer_index)
                if next_touch is None or next_touch > horizon:
                    pairs.append(
                        (tid, next_touch if next_touch is not None else infinity)
                    )
            pairs.sort(key=lambda pair: (-pair[1], pair[0]))
            cached = tuple(pairs)
            self._evict_candidates_by_layer[layer_index] = cached
        return cached

    def _handle_interval_boundary(self, interval: int, now: float) -> float:
        """Case detection for this interval, prefetch for the next one.

        The current interval is re-checked first: under memory overcommit a
        tensor prefetched earlier can have been displaced again by
        on-demand eviction, and promoting it now is strictly better than
        stalling when its layer reaches it.
        """
        stall = self._resolve_case3(interval, now)
        self._issue_prefetch(interval, now + stall, lookahead=False)
        next_interval = interval + 1
        if next_interval < self.plan.num_intervals:
            self._issue_prefetch(next_interval, now + stall)
        return stall

    def _resolve_case3(self, interval: int, now: float) -> float:
        """If this interval's prefetch is unfinished, apply §IV-D Case 3."""
        pending = [
            t for t in self._prefetch.get(interval, ()) if t.finish > now
        ]
        if not pending:
            return 0.0
        self.case3_occurrences += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                "case3",
                "prefetch",
                ts=now,
                track="prefetch",
                interval=interval,
                pending=len(pending),
                lag=max(t.finish for t in pending) - now,
            )
        deadline = self.config.case3_wait_deadline
        if deadline is not None and max(t.finish for t in pending) - now > deadline:
            # Waiting would blow the per-interval patience budget (the copy
            # is crawling behind injected aborts/refusals): take the paper's
            # "leave tensors in slow memory" choice immediately.  The slow
            # copies stay the valid mapping until each transfer lands, so
            # the interval runs correctly, just at slow-tier speed.
            self.case3_fallbacks += 1
            if tracer is not None:
                tracer.instant(
                    "case3-fallback",
                    "prefetch",
                    ts=now,
                    track="prefetch",
                    interval=interval,
                )
            return 0.0
        if not self.config.test_and_trial:
            return self._wait_for(pending, now)

        state = self._case3.get(interval)
        if state is None:
            if self._trial_active is not None and self._trial_active != interval:
                # Serialize trials so step-duration comparisons stay clean.
                return self._wait_for(pending, now)
            state = _Case3State(wait_step=self._step)
            self._case3[interval] = state
            self._trial_active = interval
            self.trial_steps_used += 1
            return self._wait_for(pending, now)
        if state.status == "decided" and state.choice == "wait":
            return self._wait_for(pending, now)
        if state.status == "trial_wait" and state.wait_step == self._step:
            return self._wait_for(pending, now)
        # 'leave': let the interval run against slow copies.
        return 0.0

    def _wait_for(self, pending: List[Transfer], now: float) -> float:
        assert self.machine is not None
        finish = max(t.finish for t in pending)
        stall = max(0.0, finish - now)
        self.machine.migration.sync(finish)
        return stall

    def _issue_prefetch(
        self, interval: int, now: float, lookahead: bool = True
    ) -> None:
        """Promote the long-lived tensors interval ``interval`` needs (§IV-D).

        ``lookahead`` marks the normal one-interval-ahead call, which is
        where the Case-3 test-and-trial state machine advances; re-issues
        for the already-running interval only fill holes and must not
        perturb the trial.
        """
        assert self.machine is not None and self.profile is not None
        if interval in self._skip_prefetch:
            return
        state = self._case3.get(interval)
        if state is not None:
            if state.status == "trial_wait" and state.wait_step is not None:
                if lookahead and self._step > state.wait_step:
                    # Second trial step: try leaving the tensors in slow.
                    state.status = "trial_leave"
                    state.leave_step = self._step
                    self.trial_steps_used += 1
                    return
            elif state.status == "trial_leave" and state.leave_step == self._step:
                return
            elif state.status == "decided" and state.choice == "leave":
                return
        # Hottest first: if fast memory runs out mid-prefetch, what is left
        # behind in slow memory is the coldest data (paper §IV-D).
        mappings = self._mappings
        ordered_mappings = [
            mappings[tid]
            for tid in self._interval_candidates()[interval]
            if tid in mappings
        ]
        runs: List[PageTableEntry] = []
        seen: Set[int] = set()
        for mapping in ordered_mappings:
            for share in mapping.shares:
                if share.run.vpn not in seen:
                    seen.add(share.run.vpn)
                    runs.append(share.run)
        if not runs:
            return
        transfers, skipped = self._promote_with_headroom(
            runs, now, self._reservation_headroom()
        )
        if skipped:
            self.case2_occurrences += 1
            # Retry as eager eviction frees space during upcoming layers.
            self._pending_prefetch[interval] = skipped
        if transfers:
            self._prefetch.setdefault(interval, []).extend(transfers)
        tracer = self._tracer
        if tracer is not None and (transfers or skipped):
            finish = max((t.finish for t in transfers), default=now)
            tracer.complete(
                "prefetch",
                "prefetch",
                ts=now,
                dur=max(0.0, finish - now),
                track="prefetch",
                interval=interval,
                nbytes=sum(t.nbytes for t in transfers),
                scheduled=len(transfers),
                skipped=len(skipped),
                lookahead=lookahead,
                case2=bool(skipped),
            )

    def _retry_pending_prefetch(self, current_interval: int, now: float) -> None:
        """Drain deferred prefetches once mid-interval demotions freed room."""
        for interval in sorted(self._pending_prefetch):
            if interval < current_interval:
                del self._pending_prefetch[interval]
                continue
            runs = [
                run
                for run in self._pending_prefetch[interval]
                if run.vpn in self.machine.page_table
                and run.device is DeviceKind.SLOW
                and not run.in_flight
            ]
            if not runs:
                del self._pending_prefetch[interval]
                continue
            transfers, skipped = self._promote_with_headroom(
                runs, now, self._reservation_headroom()
            )
            if transfers:
                self._prefetch.setdefault(interval, []).extend(transfers)
            if skipped:
                self._pending_prefetch[interval] = skipped
                break  # still no room; later intervals can wait
            del self._pending_prefetch[interval]

    def _promote_with_headroom(self, runs: List[PageTableEntry], now: float, headroom: int):
        """Promote runs one submission each (so the hottest arrive first and
        accesses can proceed as soon as *their* data lands, not when the
        whole batch does), keeping ``headroom`` bytes of fast memory free
        for the short-lived reservation."""
        machine = self.machine
        assert machine is not None
        page_size = machine.page_size
        # Keep room for the reservation *and* the layers' fresh allocations:
        # prefetched data that displaces the working set costs more than it
        # saves.
        budget = machine.fast.free - max(0, headroom) - self._upcoming_alloc_demand(1)
        if machine.pressure is not None:
            # The demand lane's reserve pool is invisible to prefetch.
            budget -= machine.pressure.reserve_bytes
        transfers: List[Transfer] = []
        skipped: List[PageTableEntry] = []
        for run in runs:
            if run.device is DeviceKind.FAST or run.in_flight:
                continue
            nbytes = run.npages * page_size
            if nbytes > budget:
                skipped.append(run)
                continue
            transfer, scheduled, more_skipped = machine.migration.promote(
                [run], now, tag="prefetch"
            )
            skipped.extend(more_skipped)
            if transfer is not None:
                transfers.append(transfer)
                budget -= nbytes
        return transfers, skipped

    def _space_deficit(self, now: float) -> int:
        """Fast-memory bytes that must still be vacated.

        Demand = the next interval's prefetch bytes still sitting on slow
        memory (exactly what the migration-in thread must land before that
        interval starts), the short-lived reservation, and room for the
        next layer's fresh allocations; supply = current free space plus
        demotions already in flight (their frames free when the copies
        land).
        """
        machine = self.machine
        assert machine is not None and self.profile is not None
        prefetch_remaining = 0
        next_interval = self.plan.interval_of_layer(self._current_layer) + 1
        if next_interval < self.plan.num_intervals:
            mappings = self._mappings
            prefetch_remaining = sum(
                mappings[tid].bytes_on(DeviceKind.SLOW, now)
                for tid in self._interval_candidates()[next_interval]
                if tid in mappings
            )
        slack = max(machine.fast.capacity // 20, self._upcoming_alloc_demand())
        if not self.residency:
            # Demotion runs on an otherwise-idle helper thread on CPU:
            # vacating a few layers further ahead costs nothing on the
            # critical path and keeps allocations landing in DRAM.
            slack += self._upcoming_alloc_demand(4)
        demand = prefetch_remaining + self._reservation_headroom() + slack
        if machine.pressure is not None:
            # Eviction must also keep the governor's urgent-lane reserve
            # open, or every demand miss starts by evicting synchronously.
            demand += machine.pressure.reserve_bytes
        inflight_demotes = machine.migration.in_flight_demote_bytes()
        return demand - machine.fast.free - inflight_demotes

    def _upcoming_alloc_demand(self, lookahead: int = 2) -> int:
        """Fresh long-lived allocation bytes of the next ``lookahead``
        layers — the room eviction must keep open right now (the global
        maximum would hold back far too much on deep, uneven models)."""
        if not self._alloc_demand_by_layer:
            return self._alloc_demand
        start = self._current_layer
        window = self._alloc_demand_by_layer[start : start + lookahead]
        return sum(window)

    def _evict_unneeded(self, layer_index: int, now: float) -> None:
        """Mid-interval eager demotion (§IV-D, prevents Case 2).

        Long-lived tensors that no layer up to the end of the *next*
        interval touches again are demotion candidates; the coldest
        (farthest next use) leave first, and only as many as the projected
        space deficit requires — migrating out data that would have fit
        only to fetch it back later wastes the channel both ways.

        A candidate counts once a share with bytes reads from fast memory
        (:meth:`~repro.dnn.alloc.TensorMapping.bytes_on`'s residency rule,
        inlined); its scan stops at the first such share.
        """
        assert self.machine is not None and self.profile is not None
        deficit = self._space_deficit(now)
        if deficit <= 0:
            return
        plan = self.plan
        interval = plan.interval_of_layer(layer_index)
        horizon = min(
            self.profile.num_layers - 1,
            (interval + 2) * plan.interval_length - 1,
        )
        infinity = self.profile.num_layers + 1
        # tid -> next touch (or infinity), coldest first.  The time filter
        # and sort key are pure profile+plan functions of the layer (see
        # _evict_candidates); only liveness and fast-residency are checked
        # per call.
        fast = DeviceKind.FAST
        evictable: Dict[int, int] = {}
        mappings = self._mappings
        for tid, key in self._evict_candidates(layer_index, horizon, infinity):
            mapping = mappings.get(tid)
            if mapping is None:
                continue
            for share in mapping.shares:
                run = share.run
                device = run.migrating_to
                if device is None or now < run.available_at:
                    device = run.device
                if device is fast and share.nbytes:
                    evictable[tid] = key
                    break
        if not evictable:
            return
        runs: List[PageTableEntry] = []
        seen: Set[int] = set()
        page_size = self.machine.page_size
        chosen_bytes = 0
        assert self.allocator is not None
        users_of = self.allocator.users_of
        candidates = evictable.keys()
        for tid in evictable:
            if chosen_bytes >= deficit:
                break
            for share in mappings[tid].shares:
                run = share.run
                if run.vpn in seen or run.device is not fast:
                    continue
                seen.add(run.vpn)
                users = users_of(run)
                if users and not candidates >= users:
                    continue  # page shared with a still-needed tensor
                runs.append(run)
                chosen_bytes += run.npages * page_size
        if runs:
            self.machine.migration.demote(runs, now, tag="evict")

    # --------------------------------------------------------------- trials

    def _settle_trials(self, step: int) -> None:
        for interval, state in self._case3.items():
            if state.status == "trial_wait" and state.wait_step == step:
                state.wait_duration = self._step_durations[step]
            elif state.status == "trial_leave" and state.leave_step == step:
                state.leave_duration = self._step_durations[step]
                assert state.wait_duration is not None
                state.choice = (
                    "wait"
                    if state.wait_duration <= state.leave_duration
                    else "leave"
                )
                state.status = "decided"
                if state.choice == "leave":
                    self._skip_prefetch.add(interval)
                if self._trial_active == interval:
                    self._trial_active = None

    # ---------------------------------------------------------------- stats

    @property
    def overhead_steps(self) -> float:
        """Profiling + trial steps (Table III's overhead accounting)."""
        return self.profiling_steps_used + self.trial_steps_used
