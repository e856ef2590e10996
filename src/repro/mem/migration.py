"""Asynchronous page migration, modelled on Sentinel's use of ``move_pages()``.

Sentinel runs two helper threads — one migrating pages from slow to fast
memory ("promote"), one in the opposite direction ("demote") — so the two
directions proceed in parallel and overlap with training computation.  Each
direction is a :class:`~repro.sim.channel.BandwidthChannel`; a migration's
completion time is fixed at submission and the run's page-table entry
records the in-flight destination and availability time.

Capacity accounting:

* promote — fast-tier space is reserved at submission (the destination
  frames must exist before the copy starts) and the slow frames are released
  at submission as well; the slow tier is the capacity-rich side, so holding
  its frames for the copy duration would never change an admission decision.
* demote — slow space is reserved at submission, but the *fast* frames are
  only released when the copy completes (committed by :meth:`MigrationEngine.sync`),
  because until then their bytes are still being read out.  This is what
  makes the paper's Case 2 possible: evictions submitted too late do not
  free fast memory in time for the next interval's prefetches.

When a promotion request does not fully fit in fast memory the engine splits
the boundary run and promotes the fitting prefix, so capacity is used down
to page granularity; the skipped remainder is returned to the caller (the
paper's Case 2 signal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.errors import MigrationFailure
from repro.mem.devices import DeviceKind, MemoryDevice
from repro.mem.page import PageTable, PageTableEntry
from repro.obs.metrics import MetricsRegistry
from repro.sim.channel import BandwidthChannel, Transfer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.chaos import FaultInjector
    from repro.mem.admission import AdmissionController
    from repro.mem.pressure import PressureGovernor
    from repro.obs.trace import EventTracer
    from repro.sim.engine import Engine, Event


@dataclass
class MigrationRecord:
    """A scheduled multi-run migration awaiting commit."""

    transfer: Transfer
    runs: List[PageTableEntry]
    direction: DeviceKind  # destination tier


class MigrationEngine:
    """Schedules page-run migrations over the two helper channels.

    With a :class:`repro.chaos.FaultInjector` attached, submissions are
    subject to two injected failure modes, mirroring real ``move_pages()``
    behaviour, and *degrade* instead of raising:

    * transient EBUSY — the submission is retried with exponential backoff
      in simulated time; a background submission that exhausts its retries
      returns its runs as skipped (the paper's leave-in-slow signal), while
      an urgent demand-path submission keeps retrying and is never refused.
    * mid-flight abort — the copy dies partway: the channel time for the
      transferred prefix is burned (an ``aborted`` transfer), but no page
      moves and all capacity reservations are rolled back.
    """

    #: Hard cap on urgent-lane retries: the demand path may never refuse,
    #: so after this many consecutive EBUSYs it proceeds regardless — as on
    #: real hardware, where whatever pin causes the EBUSY eventually drains.
    URGENT_RETRY_CAP = 64

    #: EBUSY retries before a background submission gives up and degrades
    #: into the leave-in-slow path.
    MAX_RETRIES = 4

    #: Seconds before the first EBUSY retry; doubles per attempt.
    RETRY_BACKOFF = 5e-5

    #: Fraction of a copy's bytes that cross before a mid-flight abort
    #: kills it.
    ABORT_FRACTION = 0.5

    def __init__(
        self,
        page_table: PageTable,
        fast: MemoryDevice,
        slow: MemoryDevice,
        promote_channel: BandwidthChannel,
        demote_channel: BandwidthChannel,
        stats: Optional[MetricsRegistry] = None,
        demand_channel: Optional[BandwidthChannel] = None,
        injector: Optional["FaultInjector"] = None,
        tracer: Optional["EventTracer"] = None,
    ) -> None:
        self.page_table = page_table
        self.fast = fast
        self.slow = slow
        self.promote_channel = promote_channel
        self.demote_channel = demote_channel
        #: priority lane for on-demand (residency-miss) fetches: demand
        #: faults preempt prefetch DMA instead of queueing behind it
        self.demand_channel = (
            demand_channel if demand_channel is not None else promote_channel
        )
        self.stats = stats if stats is not None else MetricsRegistry()
        self.injector = injector
        self.tracer = tracer
        #: optional :class:`~repro.mem.pressure.PressureGovernor`, attached
        #: by the machine; gates background promotions at the high
        #: watermark and withholds the urgent-lane reserve from them.
        self.governor: Optional["PressureGovernor"] = None
        #: optional :class:`repro.mem.ras.RasEngine`, attached by the
        #: machine when error injection is enabled: checksum-gates every
        #: submission and scrubs latent CEs on commit.  ``None`` keeps all
        #: RAS hook sites dormant (one ``is None`` check each).
        self.ras = None
        #: optional :class:`repro.obs.insight.InsightCollector`, attached by
        #: the machine: sees every promote/demote submission (for residency
        #: flips at the transfer's landing instant) and every instant
        #: discard/materialize tier change.  ``None`` — the default — keeps
        #: each hook site one ``is None`` check.
        self.insight = None
        #: optional :class:`repro.mem.admission.AdmissionController`,
        #: attached by the machine: screens every non-urgent
        #: promote/demote request (urgent demand migrations bypass it by
        #: contract).  ``None`` keeps both gate sites one ``is None``
        #: check; :class:`~repro.mem.admission.AlwaysAdmit` admits
        #: everything and stays trace-byte-identical to ``None``.
        self.admission: Optional["AdmissionController"] = None
        self._pending: List[MigrationRecord] = []
        #: running totals: see :meth:`in_flight_demote_bytes` and :meth:`sync`
        self._demote_pages = 0
        self._next_finish = math.inf
        #: held, not looked up: counters survive ``MetricsRegistry.reset``
        self._promoted_bytes = self.stats.counter("migration.promoted_bytes")
        self._demoted_bytes = self.stats.counter("migration.demoted_bytes")
        self._engine: Optional["Engine"] = None

    # ---------------------------------------------------------------- engine

    def bind_engine(self, engine: "Engine") -> None:
        """Commit migrations event-driven instead of by polling.

        Subscribes to :data:`~repro.sim.engine.EventKind.TRANSFER_DONE`:
        when a channel's last byte lands, :meth:`sync` runs at exactly that
        instant and commits the finished record.  This is observationally
        identical to the legacy lazy commit — ``sync`` is idempotent, every
        capacity-reading path already calls it first, and commit emits no
        trace events — but it means demoted fast frames free at the true
        finish time, which concurrent workloads on the same machine can
        see.
        """
        from repro.sim.engine import EventKind

        self._engine = engine
        engine.subscribe(EventKind.TRANSFER_DONE, self._on_transfer_done)

    def _on_transfer_done(self, event: "Event") -> None:
        self.sync(event.time)

    # ------------------------------------------------------------------ sync

    def sync(self, now: float) -> None:
        """Commit every migration whose copy has finished by ``now``.

        Returns at once while ``now`` is before a lower bound on the earliest
        pending finish, lowered as records are added and recomputed by each
        walk.  A channel blackout only pushes in-flight finishes later, so
        the bound holds in between and no copy can have landed before it.
        """
        if now < self._next_finish:
            return
        still_pending: List[MigrationRecord] = []
        next_finish = math.inf
        for record in self._pending:
            finish = record.transfer.finish
            if finish <= now:
                self._commit(record)
                if self.ras is not None:
                    # The committed copy's read pass went through the
                    # checksum path: latent CEs it carried are corrected.
                    self.ras.on_migration_commit(record)
            else:
                still_pending.append(record)
                next_finish = min(next_finish, finish)
        self._pending = still_pending
        self._next_finish = next_finish

    def refresh_availability(self) -> None:
        """Re-stamp in-flight runs from their transfers' current finish times.

        A channel blackout (:meth:`repro.sim.channel.BandwidthChannel.block`)
        suspends in-flight transfers and pushes their ``finish`` back, but
        the availability time cached on each run's page-table entry at
        submission would still claim the copy lands on the original
        schedule — letting ``effective_device`` read destination frames
        mid-outage.  The episode driver calls this right after blocking a
        channel so every cached time matches the delayed transfer.
        """
        for record in self._pending:
            for run in record.runs:
                if run.in_flight:
                    run.available_at = record.transfer.finish

    def _track(
        self, transfer: Transfer, runs: List[PageTableEntry], direction: DeviceKind
    ) -> None:
        """Put ``runs`` in flight to ``direction`` on ``transfer``, pending."""
        for run in runs:
            run.begin_migration(direction, transfer.finish)
        self._pending.append(
            MigrationRecord(transfer=transfer, runs=runs, direction=direction)
        )
        self._next_finish = min(self._next_finish, transfer.finish)

    def _commit(self, record: MigrationRecord) -> None:
        page_size = self.page_table.page_size
        for run in record.runs:
            if run.in_flight:
                run.commit_migration()
                if record.direction is DeviceKind.SLOW:
                    # Demotion: the fast frames are vacated only now.
                    self._demote_pages -= run.npages
                    self.fast.release(run.npages * page_size)

    # --------------------------------------------------------------- promote

    def promote(
        self,
        runs: Sequence[PageTableEntry],
        now: float,
        tag: object = None,
        urgent: bool = False,
    ) -> Tuple[Optional[Transfer], List[PageTableEntry], List[PageTableEntry]]:
        """Migrate ``runs`` slow -> fast, as many pages as fit.

        Returns ``(transfer, scheduled, skipped)``.  Runs already on fast or
        already in flight are silently dropped (the request is satisfied);
        pinned runs and pages that do not fit are returned in ``skipped`` in
        request order so the caller can retry — a non-empty ``skipped`` is
        the paper's Case 2 signal.  A run straddling the capacity limit is
        split so the fitting prefix still moves.
        """
        self.sync(now)
        page_size = self.page_table.page_size
        eligible: List[PageTableEntry] = []
        seen: set = set()
        npages = 0
        for run in runs:
            if run.vpn in seen:
                continue
            seen.add(run.vpn)
            if run.device is DeviceKind.FAST or run.in_flight:
                continue
            eligible.append(run)
            npages += run.npages
        if eligible and self.governor is not None and not urgent:
            if self.governor.refuse_promotion(npages * page_size, now):
                # Above the high watermark: the whole background request
                # comes back as skipped — the established leave-in-slow
                # (Case 2) signal, so every caller already degrades.
                return None, [], eligible
        if eligible and self.admission is not None and not urgent:
            if not self._screen("promote", eligible, now, tag, self.promote_channel):
                return None, [], eligible
        if eligible and self.injector is not None:
            now, refused = self._admit(now, urgent)
            if refused:
                # Retries exhausted: degrade instead of raising.  The whole
                # request comes back as skipped, which callers already treat
                # as the leave-in-slow (Case 2) signal.
                self.stats.counter("migration.busy_fallbacks").add(1)
                if self.tracer is not None:
                    self.tracer.instant(
                        "busy-fallback",
                        "migration",
                        ts=now,
                        track="migration",
                        direction="promote",
                        runs=len(eligible),
                    )
                return None, [], eligible
        scheduled: List[PageTableEntry] = []
        skipped: List[PageTableEntry] = []
        total = 0
        for run in eligible:
            if run.pinned:
                skipped.append(run)
                continue
            available = self.fast.free
            if self.governor is not None and not urgent:
                # Background promotions may never consume the demand lane's
                # reserve pool.
                available = self.governor.available(urgent=False)
            free_pages = available // page_size
            if free_pages <= 0:
                skipped.append(run)
                continue
            if run.npages > free_pages:
                tail = self.page_table.split(run.vpn, free_pages)
                skipped.append(tail)
            nbytes = run.npages * page_size
            self.fast.allocate(nbytes)
            self.slow.release(nbytes)
            scheduled.append(run)
            total += nbytes
        if not scheduled:
            return None, scheduled, skipped
        channel = self.demand_channel if urgent else self.promote_channel
        if self.injector is not None:
            now, died = self._survive_aborts(channel, total, now, tag, urgent)
            if died:
                # The copy was lost mid-flight; roll the reservations back
                # and report the runs as skipped.  Page state never changed,
                # so the source copies remain the valid mapping throughout.
                for run in scheduled:
                    nbytes = run.npages * page_size
                    self.fast.release(nbytes)
                    self.slow.allocate(nbytes)
                return None, [], skipped + scheduled
        if self.ras is not None:
            now = self.ras.transit_gate(channel, total, now, tag)
        transfer = channel.submit(total, now, tag=tag)
        self._track(transfer, scheduled, DeviceKind.FAST)
        self._promoted_bytes.add(total)
        if self.governor is not None:
            # Promotions are what push usage across the watermarks between
            # allocations; let the governor see each one land.
            self.governor.note_usage(now)
        if self.tracer is not None:
            self.tracer.complete(
                "promote",
                "migration",
                ts=transfer.start,
                dur=transfer.duration,
                track="migration",
                nbytes=total,
                runs=len(scheduled),
                skipped=len(skipped),
                src="slow",
                dst="fast",
                urgent=urgent,
                tag=None if tag is None else str(tag),
            )
        if self.insight is not None:
            self.insight.on_migration(
                "promote", scheduled, transfer, page_size, tag, urgent, now
            )
        return transfer, scheduled, skipped

    # ---------------------------------------------------------------- demote

    def demote(
        self,
        runs: Sequence[PageTableEntry],
        now: float,
        tag: object = None,
        urgent: bool = False,
    ) -> Tuple[Optional[Transfer], List[PageTableEntry]]:
        """Migrate ``runs`` fast -> slow; returns ``(transfer, scheduled)``.

        The slow tier is assumed large enough for the whole model (as on the
        paper's platforms); if it is not, the device raises and surfaces the
        misconfiguration rather than silently dropping pages.  ``urgent``
        marks a capacity-critical eviction (demand-miss path): like urgent
        promotions it is never refused by injected transient faults.
        """
        self.sync(now)
        page_size = self.page_table.page_size
        eligible: List[PageTableEntry] = []
        seen: set = set()
        npages = 0
        for run in runs:
            if run.vpn in seen:
                continue
            seen.add(run.vpn)
            if run.device is DeviceKind.SLOW or run.in_flight or run.pinned:
                continue
            eligible.append(run)
            npages += run.npages
        if not eligible:
            return None, eligible
        if self.admission is not None and not urgent:
            if not self._screen("demote", eligible, now, tag, self.demote_channel):
                # The runs simply stay on fast memory, as with an injected
                # refusal: the caller's next capacity check sees no room.
                return None, []
        if self.injector is not None:
            now, refused = self._admit(now, urgent)
            if refused:
                # Eviction refused: the runs simply stay on fast memory and
                # the caller's next capacity check sees no room was made.
                self.stats.counter("migration.busy_fallbacks").add(1)
                if self.tracer is not None:
                    self.tracer.instant(
                        "busy-fallback",
                        "migration",
                        ts=now,
                        track="migration",
                        direction="demote",
                        runs=len(eligible),
                    )
                return None, []
        scheduled: List[PageTableEntry] = []
        for run in eligible:
            self.slow.allocate(run.npages * page_size)
            scheduled.append(run)
        total = npages * page_size
        if self.injector is not None:
            now, died = self._survive_aborts(
                self.demote_channel, total, now, tag, urgent
            )
            if died:
                for run in scheduled:
                    self.slow.release(run.npages * page_size)
                return None, []
        if self.ras is not None:
            now = self.ras.transit_gate(self.demote_channel, total, now, tag)
        transfer = self.demote_channel.submit(total, now, tag=tag)
        self._track(transfer, scheduled, DeviceKind.SLOW)
        self._demote_pages += npages
        self._demoted_bytes.add(total)
        if self.tracer is not None:
            self.tracer.complete(
                "demote",
                "migration",
                ts=transfer.start,
                dur=transfer.duration,
                track="migration",
                nbytes=total,
                runs=len(scheduled),
                skipped=0,
                src="fast",
                dst="slow",
                urgent=urgent,
                tag=None if tag is None else str(tag),
            )
        if self.insight is not None:
            self.insight.on_migration(
                "demote", scheduled, transfer, page_size, tag, urgent, now
            )
        return transfer, scheduled

    # ------------------------------------------------------------ admission

    def _screen(
        self,
        kind: str,
        eligible: List[PageTableEntry],
        now: float,
        tag: object,
        channel: BandwidthChannel,
    ) -> bool:
        """Admission-controller gate for one background request.

        Builds the typed :class:`~repro.mem.admission.MigrationRequest`
        from state the engine already holds (profiling counts on the page
        table, channel backlog, pending records), so no call site had to
        learn new plumbing.  Admitted requests bump counters only; denied
        and deferred requests additionally emit an ``admission``-category
        trace instant — which is what keeps ``AlwaysAdmit`` byte-identical
        to no controller at all.
        """
        from repro.mem.admission import DENY, MigrationRequest

        page_size = self.page_table.page_size
        npages = sum(run.npages for run in eligible)
        nbytes = npages * page_size
        request = MigrationRequest(
            kind=kind,
            nbytes=nbytes,
            nruns=len(eligible),
            tag=None if tag is None else str(tag),
            now=now,
            vpns=tuple(run.vpn for run in eligible),
            heat=sum(run.accesses for run in eligible) / max(1, npages),
            in_flight_bytes=self.in_flight_bytes(now),
            backlog=channel.backlog_at(now),
        )
        decision = self.admission.decide(request)
        if decision.admitted:
            self.stats.counter("admission.admitted").add(1)
            self.stats.counter("admission.admitted_bytes").add(nbytes)
            self.admission.on_admitted(request)
            return True
        noun = "denied" if decision.verdict == DENY else "deferred"
        reason_key = f"admission.{noun}.{decision.reason}"
        self.stats.describe(
            reason_key,
            f"Background {kind} requests {noun} by the admission "
            f"controller (reason: {decision.reason}).",
        )
        self.stats.counter(reason_key).add(1)
        self.stats.counter(f"admission.{noun}_bytes").add(nbytes)
        if self.tracer is not None:
            self.tracer.instant(
                f"admission-{decision.verdict}",
                "admission",
                ts=now,
                track="admission",
                kind=kind,
                reason=decision.reason,
                nbytes=nbytes,
                runs=len(eligible),
                tag=None if tag is None else str(tag),
            )
        return False

    # ------------------------------------------------------- fault handling

    def _admit(self, now: float, urgent: bool) -> Tuple[float, bool]:
        """Transient-EBUSY gate; returns ``(submit_time, refused)``.

        Each refused attempt backs off exponentially in simulated time
        before resubmitting.  Background submissions give up after
        :attr:`MAX_RETRIES`; urgent submissions keep retrying (up to
        :attr:`URGENT_RETRY_CAP`) and are never refused.
        """
        injector = self.injector
        assert injector is not None
        if not injector.migration_busy():
            return now, False
        backoff = self.RETRY_BACKOFF
        retries = self.URGENT_RETRY_CAP if urgent else self.MAX_RETRIES
        for _ in range(retries):
            self.stats.counter("migration.retries").add(1)
            now += backoff
            backoff *= 2.0
            if not injector.migration_busy():
                return now, False
        return now, not urgent

    def _survive_aborts(
        self,
        channel: BandwidthChannel,
        nbytes: int,
        now: float,
        tag: object,
        urgent: bool,
    ) -> Tuple[float, bool]:
        """Mid-flight-abort gate; returns ``(submit_time, copy_lost)``.

        Every abort burns channel time for the :attr:`ABORT_FRACTION` of the
        payload that crossed before the copy died.  A background submission
        is lost on the first abort (``copy_lost=True`` — the caller rolls
        back); urgent submissions resubmit after each wreck until one
        survives.
        """
        injector = self.injector
        assert injector is not None
        attempts = self.URGENT_RETRY_CAP if urgent else 1
        for _ in range(attempts):
            if not injector.migration_abort():
                return now, False
            partial = int(nbytes * self.ABORT_FRACTION)
            wreck = channel.submit(partial, now, tag=tag, aborted=True)
            self.stats.counter("migration.aborted_bytes").add(partial)
            if self.tracer is not None:
                # The chaos-lane twin of the wrecked channel span: capacity
                # reservations for the payload are rolled back by the caller,
                # so tests can pair this event with balanced accounting.
                self.tracer.complete(
                    "abort",
                    "chaos",
                    ts=wreck.start,
                    dur=wreck.duration,
                    track="chaos",
                    nbytes=partial,
                    channel=channel.name,
                    urgent=urgent,
                    tag=None if tag is None else str(tag),
                )
            now = wreck.finish
            if not urgent:
                return now, True
        return now, False

    # ------------------------------------------------------------- per-run

    def _submit_each(
        self,
        kind: str,
        runs: Sequence[PageTableEntry],
        now: float,
        tag: object,
        urgent: bool,
    ) -> List[Transfer]:
        """Shared per-run submission loop behind the ``*_each`` helpers.

        Each run gets its own submission — and therefore its own
        completion time, admission decision, and injected-fault draws — so
        an access racing the queue waits only for *its* data; batching
        would make it wait for the whole convoy.
        """
        submit = self.promote if kind == "promote" else self.demote
        transfers: List[Transfer] = []
        for run in runs:
            transfer = submit([run], now, tag=tag, urgent=urgent)[0]
            if transfer is not None:
                transfers.append(transfer)
        return transfers

    def promote_each(
        self,
        runs: Sequence[PageTableEntry],
        now: float,
        tag: object = None,
        urgent: bool = False,
    ) -> List[Transfer]:
        """Promote runs as individual submissions (see :meth:`_submit_each`)."""
        return self._submit_each("promote", runs, now, tag, urgent)

    def demote_each(
        self,
        runs: Sequence[PageTableEntry],
        now: float,
        tag: object = None,
        urgent: bool = False,
    ) -> List[Transfer]:
        """Demote runs as individual submissions (see :meth:`_submit_each`)."""
        return self._submit_each("demote", runs, now, tag, urgent)

    # ------------------------------------------------------------ relocation

    def relocate(self, nbytes: int, now: float, tag: object = None) -> Transfer:
        """Charge channel time for an intra-tier copy (arena compaction).

        Compaction moves live chunks between same-tier page runs; no page
        table state changes and no capacity is reserved, but the copy is
        real — it rides the demote channel (the direction with spare
        bandwidth during pressure, since promotions are being refused) and
        delays everything queued behind it.
        """
        transfer = self.demote_channel.submit(nbytes, now, tag=tag)
        self.stats.counter("migration.relocated_bytes").add(nbytes)
        return transfer

    # ------------------------------------------------- discard / materialize

    def discard(self, run: PageTableEntry, now: float) -> None:
        """Drop a fast-resident run's contents without copying it out.

        Used by recomputation schemes (Capuchin): the data is deleted, so
        no migration bandwidth is spent and the fast frames free instantly;
        the run's backing moves to the slow tier's accounting (it will be
        re-materialized by recomputation, whose cost the caller charges).
        """
        self.sync(now)
        page_size = self.page_table.page_size
        if run.in_flight:
            raise MigrationFailure(f"cannot discard in-flight run {run.vpn}")
        if run.device is not DeviceKind.FAST:
            return
        nbytes = run.npages * page_size
        self.slow.allocate(nbytes)
        self.fast.release(nbytes)
        run.device = DeviceKind.SLOW
        self.stats.counter("migration.discarded_bytes").add(nbytes)
        if self.insight is not None:
            self.insight.on_instant_flip("discard", run, nbytes, now)

    def materialize(self, run: PageTableEntry, now: float) -> bool:
        """Recreate a discarded run in fast memory without a copy.

        Returns False if fast memory cannot hold it (the caller must evict
        first).  The compute cost of recomputation is the caller's to
        charge; only capacity accounting happens here.
        """
        self.sync(now)
        page_size = self.page_table.page_size
        if run.in_flight:
            raise MigrationFailure(f"cannot materialize in-flight run {run.vpn}")
        if run.device is DeviceKind.FAST:
            return True
        nbytes = run.npages * page_size
        if not self.fast.fits(nbytes):
            return False
        self.fast.allocate(nbytes)
        self.slow.release(nbytes)
        run.device = DeviceKind.FAST
        self.stats.counter("migration.materialized_bytes").add(nbytes)
        if self.insight is not None:
            self.insight.on_instant_flip("materialize", run, nbytes, now)
        return True

    # ------------------------------------------------------------- releasing

    def release_run(self, run: PageTableEntry, now: float) -> None:
        """Account for a run being freed (tensor deallocation).

        An in-flight run is force-committed first — the channel time is
        already spent and the copy's capacity effects must land before the
        frames are returned.
        """
        page_size = self.page_table.page_size
        if run.in_flight:
            target = run.migrating_to
            run.commit_migration()
            if target is DeviceKind.SLOW:
                self._demote_pages -= run.npages
                self.fast.release(run.npages * page_size)
            # Drop the run from its pending record so sync() won't
            # double-commit it.
            for record in self._pending:
                if run in record.runs:
                    record.runs.remove(run)
                    break
        if run.device is DeviceKind.FAST:
            self.fast.release(run.npages * page_size)
        else:
            self.slow.release(run.npages * page_size)

    # ----------------------------------------------------------------- query

    def in_flight_demote_bytes(self) -> int:
        """Fast-tier bytes whose demotion copy is still in flight.

        Answered in O(1) from a running page count: a demotion adds its
        pages when it is submitted, and each run leaves the count when its
        record commits or when :meth:`release_run` force-commits it.
        In-flight runs are never split, so the count equals the sum over
        the pending demotion records.  Deliberately does *not* sync:
        callers (eviction sizing, watermark reclaim) want the state as of
        their own ``now`` without committing finished copies early.
        """
        return self._demote_pages * self.page_table.page_size

    def in_flight_bytes(self, now: float) -> int:
        """Bytes still being copied at ``now`` (both directions)."""
        self.sync(now)
        page_size = self.page_table.page_size
        return sum(
            sum(r.npages for r in record.runs) * page_size
            for record in self._pending
            if not record.transfer.done_by(now)
        )

    def drain_time(self, now: float) -> float:
        """Time at which every outstanding migration completes."""
        self.sync(now)
        if not self._pending:
            return now
        return max(now, max(r.transfer.finish for r in self._pending))
