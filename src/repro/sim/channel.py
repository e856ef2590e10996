"""Finite-bandwidth transfer channels.

A :class:`BandwidthChannel` models a resource that moves bytes at a fixed
rate and serves requests first-come-first-served — e.g. one of Sentinel's two
page-migration helper threads, the PCIe link between CPU and GPU, or the
cache-fill path of Optane's Memory Mode.

Because requests are served FIFO at a constant rate, the completion time of a
transfer is known analytically the moment it is submitted::

    start  = max(submit_time, time the previous transfer finishes)
    finish = start + bytes / bandwidth

which lets the executor overlap computation with transfers without a general
event queue: it simply compares the clock against ``transfer.finish``.

When a channel is bound to a :class:`repro.sim.engine.Engine` (via
:meth:`BandwidthChannel.bind_engine`), each submission *additionally*
schedules a :data:`~repro.sim.engine.EventKind.TRANSFER_DONE` event at the
analytic finish time, so its two subscribers (migration commit and
Sentinel's prefetch bookkeeping) learn about completions without polling.  The
analytic model stays the source of truth for times either way — the engine
only changes *when code runs*, never *what times it computes*.  A bound
channel also forgets each transfer once it has landed by the engine's
clock, keeping only running totals, so its memory follows the transfers in
flight rather than the length of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional

from repro.sim.engine import Engine, Event, EventKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.trace import EventTracer


@dataclass
class Transfer:
    """A scheduled transfer on a :class:`BandwidthChannel`.

    Only :meth:`BandwidthChannel.block` changes one after submission: a
    blackout pushes back the ``start`` and ``finish`` of a transfer still
    in flight.

    Attributes:
        nbytes: payload size in bytes.
        submitted: simulation time the request was issued.
        start: time the channel began serving the request.
        finish: time the last byte arrives; the payload is usable from then on.
        tag: opaque caller payload (e.g. the set of pages being migrated).
        aborted: the copy died mid-flight — the channel time through
            ``finish`` was burned but the payload never became usable.
    """

    nbytes: int
    submitted: float
    start: float
    finish: float
    tag: Any = None
    aborted: bool = False

    @property
    def duration(self) -> float:
        """Service time (excluding queueing delay)."""
        return self.finish - self.start

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting behind earlier transfers."""
        return self.start - self.submitted

    def done_by(self, when: float) -> bool:
        """Whether the transfer has fully completed at time ``when``."""
        return self.finish <= when


class BandwidthChannel:
    """FIFO transfer channel with fixed bandwidth.

    Args:
        bandwidth: bytes per second; must be positive.
        name: label used in stats and error messages.
        latency: fixed per-transfer setup cost in seconds (system call,
            TLB shootdown, DMA setup...), added once per submission.
        tracer: optional :class:`repro.obs.EventTracer`; every submission
            then emits a ``channel``-category complete span on a track named
            after the channel.  ``None`` (the default) records nothing and
            costs one ``is None`` check per submission.  The spans are
            the channel's record: their ``nbytes`` args add up to
            :attr:`bytes_moved`, and on a run without blackouts the mean
            of their ``queued`` args is :attr:`mean_queueing_delay`.
    """

    def __init__(
        self,
        bandwidth: float,
        name: str = "channel",
        latency: float = 0.0,
        tracer: Optional["EventTracer"] = None,
    ):
        if bandwidth <= 0.0:
            raise ValueError(f"channel bandwidth must be positive, got {bandwidth!r}")
        if latency < 0.0:
            raise ValueError(f"channel latency must be non-negative, got {latency!r}")
        self.bandwidth = float(bandwidth)
        self.name = name
        self.latency = float(latency)
        self.tracer = tracer
        self._next_free = 0.0
        self._busy_time = 0.0
        self._blocked_time = 0.0
        self._bytes_moved = 0
        self._aborted_transfers = 0
        self._history: List[Transfer] = []
        #: transfers dropped from the history once landed, and the sum of
        #: their queueing delays, added in submission order
        self._landed = 0
        self._landed_delay = 0.0
        self._engine: Optional["Engine"] = None
        self._pending_events: List["Event"] = []

    def bind_engine(self, engine: "Engine") -> None:
        """Schedule a TRANSFER_DONE event for every future submission.

        The event fires at the transfer's analytic ``finish`` time with
        payload ``{"transfer": t, "channel": self}``.  Binding changes no
        computed times — it only gives subscribers a callback at the
        instant the last byte lands.
        """
        self._engine = engine

    @property
    def engine(self) -> Optional["Engine"]:
        """The bound event engine, if any."""
        return self._engine

    @property
    def next_free(self) -> float:
        """Earliest time a new transfer could start service."""
        return self._next_free

    @property
    def bytes_moved(self) -> int:
        """Total bytes moved over the channel's lifetime."""
        return self._bytes_moved

    @property
    def busy_time(self) -> float:
        """Total time the channel spent actively transferring."""
        return self._busy_time

    @property
    def aborted_transfers(self) -> int:
        """Number of submissions that died mid-flight (injected faults)."""
        return self._aborted_transfers

    @property
    def history(self) -> List[Transfer]:
        """Transfers not yet landed, in submission order (shared list, do not
        mutate).

        An engine-bound channel drops, at each submission, every transfer
        that has landed by the engine's clock; an unbound channel has no
        clock to judge that by and keeps every transfer.
        """
        return self._history

    @property
    def mean_queueing_delay(self) -> float:
        """Mean ``start - submitted`` over every submission (0.0 when there
        was none).

        The delays are added in submission order — the landed transfers'
        running total first, then the history — so the mean is the same
        whenever transfers were dropped.
        """
        total = self._landed_delay
        for transfer in self._history:
            total += transfer.start - transfer.submitted
        count = self._landed + len(self._history)
        return total / count if count else 0.0

    def service_time(self, nbytes: int) -> float:
        """Pure transfer time for ``nbytes`` ignoring queueing."""
        if nbytes < 0:
            raise ValueError(f"cannot transfer negative bytes {nbytes!r}")
        return self.latency + nbytes / self.bandwidth

    def submit(
        self, nbytes: int, now: float, tag: Any = None, aborted: bool = False
    ) -> Transfer:
        """Enqueue a transfer of ``nbytes`` at time ``now`` and return it.

        Zero-byte transfers are legal and complete after ``latency``; they are
        useful as synchronization markers.  An ``aborted`` submission models
        a copy that dies mid-flight: it occupies the channel like any other
        transfer (its bytes really crossed the wire), but the caller must not
        treat its payload as delivered.
        """
        if nbytes < 0:
            raise ValueError(f"cannot transfer negative bytes {nbytes!r}")
        start = max(now, self._next_free)
        finish = start + self.service_time(nbytes)
        transfer = Transfer(
            nbytes=nbytes,
            submitted=now,
            start=start,
            finish=finish,
            tag=tag,
            aborted=aborted,
        )
        self._next_free = finish
        self._busy_time += finish - start
        self._bytes_moved += nbytes
        if aborted:
            self._aborted_transfers += 1
        self._history.append(transfer)
        if self._engine is not None:
            self._drop_landed(self._engine.now)
            event = self._engine.schedule_at(
                finish,
                EventKind.TRANSFER_DONE,
                name=self.name,
                payload={"transfer": transfer, "channel": self},
            )
            self._pending_events.append(event)
            if len(self._pending_events) > 64:
                self._prune_fired_events()
        if self.tracer is not None:
            self.tracer.complete(
                "xfer",
                "channel",
                ts=start,
                dur=finish - start,
                track=self.name,
                nbytes=nbytes,
                queued=start - now,
                aborted=aborted,
                tag=None if tag is None else str(tag),
            )
        return transfer

    @property
    def blocked_time(self) -> float:
        """Total time the channel was held unavailable by failure episodes."""
        return self._blocked_time

    def block(self, now: float, duration: float) -> float:
        """Hold the channel unavailable for ``duration`` seconds from ``now``.

        Models a fabric blackout (a link flap, a switch reset on a
        network-attached slow tier).  The outage takes effect *immediately*:
        a transfer whose last byte has not landed by ``now`` is suspended
        for the outage and finishes ``duration`` later (its scheduled
        ``TRANSFER_DONE`` event is re-scheduled to the new finish time), and
        no new transfer can start until the blackout ends — queued work is
        pushed back exactly the way a long transfer would push it.  A
        completion can therefore never be delivered mid-outage.

        Callers that cached completion times from in-flight transfers (the
        migration engine stamps them on page runs) must refresh them after
        a block — see :meth:`repro.mem.migration.MigrationEngine.refresh_availability`.

        Returns the time at which the channel becomes available again.
        """
        if duration < 0.0:
            raise ValueError(f"blackout duration must be >= 0, got {duration!r}")
        # Suspend everything still in flight.  FIFO service makes finish
        # times monotone over the history, so only a suffix can be live.
        for transfer in reversed(self._history):
            if transfer.finish <= now:
                break
            transfer.finish += duration
            if transfer.start > now:
                transfer.start += duration
        self._next_free = max(now, self._next_free) + duration
        self._blocked_time += duration
        if self._engine is not None:
            rescheduled: List["Event"] = []
            for event in self._pending_events:
                if event.cancelled:
                    continue
                if event.time <= now:
                    rescheduled.append(event)
                    continue
                # The completion must not fire mid-outage: cancel the stale
                # event and schedule a fresh one at the suspended transfer's
                # new finish time, payload intact.
                event.cancel()
                transfer = event.payload.get("transfer")
                when = (
                    transfer.finish
                    if transfer is not None
                    else event.time + duration
                )
                rescheduled.append(
                    self._engine.schedule_at(
                        when, event.kind, name=event.name, payload=event.payload
                    )
                )
            self._pending_events = rescheduled
        if self.tracer is not None:
            self.tracer.complete(
                "blackout",
                "channel",
                ts=now,
                dur=duration,
                track=self.name,
                nbytes=0,
            )
        return self._next_free

    def backlog_at(self, when: float) -> float:
        """Seconds of already-queued work remaining at time ``when``."""
        return max(0.0, self._next_free - when)

    def idle_from(self, when: float) -> bool:
        """Whether the channel has no queued work at time ``when``."""
        return self._next_free <= when

    def _drop_landed(self, now: float) -> None:
        """Fold the transfers landed by engine time ``now`` into the totals.

        Submissions may be stamped ahead of the engine, but blackouts block
        at engine time, which never runs backwards: no later :meth:`block`
        can shift a transfer whose last byte landed by ``now``, so its
        queueing delay is final.  Finish times are monotone over the
        history, so the landed transfers are a prefix.
        """
        history = self._history
        delay = self._landed_delay
        landed = 0
        for transfer in history:
            if transfer.finish > now:
                break
            delay += transfer.start - transfer.submitted
            landed += 1
        if landed:
            del history[:landed]
            self._landed += landed
            self._landed_delay = delay

    def _prune_fired_events(self) -> None:
        if self._engine is None:
            self._pending_events = []
            return
        now = self._engine.now
        self._pending_events = [
            ev for ev in self._pending_events if ev.time > now and not ev.cancelled
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BandwidthChannel(name={self.name!r}, bw={self.bandwidth:.3e}, "
            f"next_free={self._next_free:.6f})"
        )
