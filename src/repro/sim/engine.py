"""Deterministic discrete-event simulation kernel.

Until this module existed the simulator was lockstep: the executor advanced
a single :class:`~repro.sim.clock.Clock` through each layer and every
asynchronous activity (page migration, cache fills) was *accounted for*
analytically — completion times computed at submission and compared against
the clock later.  That is exact for one workload, but it cannot model two
workloads contending for the same DDR/Optane/PCIe channels, because there is
no global ordering of "what happens next" across independent timelines.

:class:`Engine` supplies that ordering:

* a heap-ordered event queue with the stable tie-break ``(time, seq)`` —
  two events at the same instant fire in scheduling order, so runs are
  reproducible to the byte;
* typed events (:class:`EventKind`) with per-kind subscriptions, so the
  three subscribers (migration commit and Sentinel's prefetch bookkeeping
  on ``TRANSFER_DONE``, the serving layer on failure episodes' ``FAULT``)
  react without polling;
* process-style coroutines (:class:`Process`) for long-running activities:
  a generator yields float delays and the engine resumes it at the right
  simulated instant, interleaved with every other process on the machine.

The engine only schedules: every event it fires was scheduled ahead of
time, and a run is watched through its trace (:mod:`repro.obs`), not
through engine events.

Determinism rules (the contract the differential and golden-trace suites
pin):

1. The only time source is the engine's clock; nothing reads wall time.
2. Events fire in ``(time, seq)`` order; ``seq`` increments per schedule
   call, so identical call sequences produce identical orders.
3. Callbacks/subscribers run synchronously inside :meth:`Engine._fire`, in
   subscription order, before the next event is popped.
4. Scheduling in the past raises :class:`EngineError` instead of silently
   reordering the timeline.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.sim.clock import Clock

__all__ = [
    "Engine",
    "EngineError",
    "Event",
    "EventKind",
    "Interrupt",
    "Process",
]


class EngineError(RuntimeError):
    """Raised on scheduling bugs: past events, deadlocks, double resumes."""


class Interrupt(Exception):
    """Base class for exceptions thrown into a process via ``interrupt()``.

    Subclass it per concern (a request timeout, a machine failure) so the
    interrupted generator — or the code that owns it — can distinguish why
    it was cancelled.  Any exception type works with
    :meth:`Process.interrupt`; deriving from this class merely documents
    the intent and lets handlers catch the whole family at once.
    """


class EventKind(enum.Enum):
    """The event taxonomy: what a scheduled event is for.

    Attributes:
        TIMER: a plain scheduled callback (:meth:`Engine.schedule` /
            :meth:`Engine.schedule_at`).
        RESUME: a process resuming after a yielded delay.
        TRANSFER_DONE: a :class:`~repro.sim.channel.BandwidthChannel`
            transfer's last byte arrived; payload carries ``transfer`` and
            ``channel``.  Migration commit and prefetch bookkeeping
            subscribe to this.
        FAULT: a :class:`~repro.chaos.EpisodeDriver` failure episode begins
            or ends; payload carries the ``episode`` and its ``phase``.  The
            serving layer subscribes to this.
    """

    TIMER = "timer"
    RESUME = "resume"
    TRANSFER_DONE = "transfer-done"
    FAULT = "fault"

    # Members are singletons, so identity hashing is exact, and it runs in
    # C: ``Enum.__hash__`` is a Python call, paid by every subscriber
    # lookup in ``_fire`` and ``_retire``.
    __hash__ = object.__hash__


@dataclass
class Event:
    """One scheduled occurrence.

    Attributes:
        time: absolute simulated time the event fires.
        seq: global scheduling sequence number — the deterministic
            tie-break for simultaneous events.
        kind: the :class:`EventKind` lane (drives subscriptions).
        name: short human/trace label.
        payload: free-form data for subscribers.
        callback: optional ``fn(event)`` invoked when the event fires,
            before subscribers.
        cancelled: a cancelled event stays in the heap but fires nothing.
    """

    time: float
    seq: int
    kind: EventKind
    name: str = ""
    payload: Dict[str, Any] = field(default_factory=dict)
    callback: Optional[Callable[["Event"], None]] = None
    cancelled: bool = False

    def cancel(self) -> None:
        """Prevent the event from firing (O(1); it is skipped when popped)."""
        self.cancelled = True


class Process:
    """A generator coroutine driven by the engine.

    The generator yields delays (a ``float`` or ``int`` of simulated
    seconds) and is resumed by the engine that long after the yield.  Its
    ``return`` value is captured as :attr:`result`.

    A waiting process can be cancelled from outside with :meth:`interrupt`:
    the exception is thrown into the generator at its current yield point,
    so ``try/except``/``finally`` blocks inside it run normally.  A process
    terminated by an uncaught interrupt records it in :attr:`error`.
    """

    def __init__(self, engine: "Engine", gen: Generator, name: str = "proc") -> None:
        self.engine = engine
        self.gen = gen
        self.name = name
        self.done = False
        self.result: Any = None
        #: the uncaught exception that terminated the process, if any
        self.error: Optional[BaseException] = None
        #: the scheduled event that will resume this process (for cancel)
        self._pending: Optional[Event] = None
        #: one resume callback for the process's whole lifetime — the
        #: dispatch fast path hands this bound method to the scheduler
        #: instead of binding a fresh one per yield
        self._resume = self._step

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.done:
            state = "done"
        else:
            state = "waiting" if self._pending is not None else "ready"
        return f"Process({self.name!r}, {state})"

    def waiting_on(self) -> str:
        """Human-readable description of what the process is blocked on.

        The deadlock diagnostics quote this, so it names the concrete
        event rather than just saying "waiting".
        """
        if self.done:
            return "nothing (completed)"
        event = self._pending
        if event is None:
            return "nothing (ready to run)"
        if event.cancelled:
            return (
                f"cancelled {event.kind.value} event {event.name!r} "
                "that will never fire"
            )
        return f"{event.kind.value} event {event.name!r} at t={event.time:.9f}"

    # The engine calls this, directly or as the resume event's callback, to
    # advance the generator to its next yield.
    def _step(self, _event: Optional[Event] = None) -> None:
        if self.done:
            raise EngineError(f"process {self.name!r} resumed after completion")
        self._pending = None
        try:
            delay = self.gen.send(None)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            self.engine._on_process_done(self)
            return
        self._sleep(delay)

    def interrupt(self, exc: BaseException) -> None:
        """Throw ``exc`` into the process at its current yield point.

        The pending resume event is cancelled first, then the exception is
        delivered via ``generator.throw``.  Three outcomes:

        * the generator catches ``exc`` and yields again — the process
          sleeps for the new delay;
        * the generator catches ``exc`` and returns — the process completes
          normally with that return value;
        * ``exc`` propagates out — the process terminates and records the
          exception in :attr:`error` (it is not re-raised here; the caller
          decided to cancel, so cancellation succeeding is not an error).

        A *different* exception escaping the generator is a real bug in the
        process body and is re-raised.
        """
        if self.done:
            raise EngineError(
                f"cannot interrupt process {self.name!r}: already completed"
            )
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        try:
            delay = self.gen.throw(exc)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            self.engine._on_process_done(self)
            return
        except BaseException as err:
            self.done = True
            self.error = err
            self.engine._on_process_done(self)
            if err is not exc:
                raise
            return
        self._sleep(delay)

    def _sleep(self, delay: Any) -> None:
        if not isinstance(delay, (int, float)):
            raise EngineError(
                f"process {self.name!r} yielded {delay!r}: unsupported, "
                "a process yields float delays"
            )
        self._pending = self.engine._schedule_resume(
            float(delay), self.name, self._resume
        )


class Engine:
    """The discrete-event scheduler: one heap, one clock, many processes.

    Args:
        clock: time source to drive; a fresh :class:`Clock` at 0 by
            default.  The executor passes its own clock so tracers bound
            to it keep stamping correctly.
    """

    #: retired RESUME events kept for reuse (bounds allocator churn without
    #: hoarding memory when many processes block at once)
    _RESUME_POOL_LIMIT = 64

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock if clock is not None else Clock()
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._subscribers: Dict[EventKind, List[Callable[[Event], None]]] = {}
        self._processes: List[Process] = []
        #: freelist of retired RESUME Event objects (see _schedule_resume)
        self._resume_pool: List[Event] = []

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

    # ------------------------------------------------------------ scheduling

    def schedule(
        self,
        delay: float,
        kind: EventKind = EventKind.TIMER,
        name: str = "",
        payload: Optional[Dict[str, Any]] = None,
        callback: Optional[Callable[[Event], None]] = None,
    ) -> Event:
        """Schedule an event ``delay`` seconds from now (>= 0)."""
        if delay < 0.0:
            raise EngineError(f"cannot schedule into the past (delay={delay!r})")
        return self.schedule_at(
            self.clock.now + delay, kind, name=name, payload=payload, callback=callback
        )

    def schedule_at(
        self,
        when: float,
        kind: EventKind = EventKind.TIMER,
        name: str = "",
        payload: Optional[Dict[str, Any]] = None,
        callback: Optional[Callable[[Event], None]] = None,
    ) -> Event:
        """Schedule an event at absolute time ``when`` (>= now)."""
        if when < self.clock.now:
            raise EngineError(
                f"cannot schedule at {when!r}, now is {self.clock.now!r}"
            )
        event = Event(
            time=when,
            seq=next(self._seq),
            kind=kind,
            name=name,
            payload=payload if payload is not None else {},
            callback=callback,
        )
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    # Process-resume scheduling fast path.  Each yield of every process
    # schedules exactly one RESUME event, making these by far the most
    # allocated objects in a run; retired ones are recycled through
    # ``_resume_pool`` (refilled at pop time by the run loops, strictly
    # after the event fired, so no live reference can observe the reuse).
    # A recycled event still draws a *fresh* sequence number — the
    # ``(time, seq)`` ordering contract is untouched; only the allocation
    # is saved.

    def _schedule_resume(
        self, delay: float, name: str, callback: Callable[["Event"], None]
    ) -> Event:
        """Schedule a process resume ``delay`` seconds from now (>= 0)."""
        if delay < 0.0:
            raise EngineError(f"cannot schedule into the past (delay={delay!r})")
        when = self.clock.now + delay
        pool = self._resume_pool
        if pool:
            event = pool.pop()
            event.time = when
            event.seq = next(self._seq)
            event.name = name
            event.callback = callback
            event.cancelled = False
        else:
            event = Event(
                time=when,
                seq=next(self._seq),
                kind=EventKind.RESUME,
                name=name,
                callback=callback,
            )
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    def _retire(self, event: Event) -> None:
        """Recycle a popped RESUME event into the freelist.

        Only called after the event left the heap (fired or cancelled), at
        which point nothing holds it: the owning process either cleared
        ``_pending`` (cancel path) or replaced it while the event's own
        callback ran (resume path).  Events of other kinds — and RESUME
        events when someone subscribed to them, since a handler may
        legitimately retain what it saw — are left to the garbage
        collector.
        """
        if (
            event.kind is EventKind.RESUME
            and not self._subscribers.get(EventKind.RESUME)
            and len(self._resume_pool) < self._RESUME_POOL_LIMIT
        ):
            event.callback = None
            if event.payload:
                event.payload.clear()
            self._resume_pool.append(event)

    # ---------------------------------------------------------- subscription

    def subscribe(self, kind: EventKind, handler: Callable[[Event], None]) -> None:
        """Register ``handler`` for every fired event of ``kind``.

        Handlers run synchronously, in subscription order, after the
        event's own callback.
        """
        self._subscribers.setdefault(kind, []).append(handler)

    # -------------------------------------------------------------- processes

    def process(self, gen: Generator, name: str = "proc") -> Process:
        """Adopt generator ``gen`` as a process and start it immediately.

        The first segment runs synchronously up to its first yield, exactly
        like a thread that runs until it first blocks.
        """
        proc = Process(self, gen, name=name)
        self._processes.append(proc)
        proc._step()
        return proc

    def _on_process_done(self, proc: Process) -> None:
        if proc in self._processes:
            self._processes.remove(proc)

    # ------------------------------------------------------------------- run

    def _fire(self, event: Event) -> None:
        if event.callback is not None:
            event.callback(event)
        for handler in self._subscribers.get(event.kind, ()):
            handler(event)

    def run(self, until: Optional[float] = None) -> None:
        """Fire events in order until the queue empties (or past ``until``).

        With ``until`` given, events strictly after it stay queued and the
        clock is left at the later of its current value and ``until``.
        Cancelled events are discarded as they surface.  Same-instant pops
        share one clock position: the clock only moves when the popped
        event's time differs, so a burst of simultaneous events costs one
        advance, with ``(time, seq)`` firing order unchanged.
        """
        clock = self.clock
        while self._heap:
            time, _, event = self._heap[0]
            if event.cancelled:
                heapq.heappop(self._heap)
                self._retire(event)
                continue
            if until is not None and time > until:
                break
            heapq.heappop(self._heap)
            if event.time != clock.now:
                clock.advance_to(event.time)
            self._fire(event)
            self._retire(event)
        if until is not None and until > self.clock.now:
            self.clock.advance_to(until)

    def run_until_complete(self, proc: Process) -> Any:
        """Fire events until ``proc`` finishes; returns its result.

        Events scheduled beyond the process's completion stay queued (a
        transfer finishing after a step ends is next step's business).
        Raises :class:`EngineError` if the queue drains first — that is a
        deadlock: the process waits on something nobody will ever fire.
        The error names every stuck process and what it is blocked on.
        """
        heap = self._heap
        clock = self.clock
        pop = heapq.heappop
        while not proc.done:
            # run()'s loop without the ``until`` test: this loop brackets
            # every simulated instant of an engine-driven training step, so
            # the dispatch overhead is paid once per event of the whole run.
            while heap:
                _, _, event = pop(heap)
                if event.cancelled:
                    self._retire(event)
                    continue
                break
            else:
                raise EngineError(
                    f"event queue drained but process {proc.name!r} never "
                    f"completed — deadlock: {self._stuck_report()}"
                )
            if event.time != clock.now:
                clock.advance_to(event.time)
            self._fire(event)
            self._retire(event)
        return proc.result

    def _stuck_report(self) -> str:
        """One line per unfinished process naming its blocking condition."""
        if not self._processes:
            return "no processes remain (completed process resumed?)"
        return "; ".join(
            f"process {proc.name!r} is waiting on {proc.waiting_on()}"
            for proc in self._processes
        )

    def ensure_quiescent(self) -> None:
        """Raise :class:`EngineError` if any spawned process never finished.

        :meth:`run` returns silently once the event queue drains, even when
        processes remain blocked on cancelled events — callers that expect
        every process to complete (the cluster and serving harnesses) call
        this afterwards to turn a silent partial run into a diagnosable
        failure naming each stuck process.
        """
        if self._processes:
            raise EngineError(
                f"event queue drained with {len(self._processes)} unfinished "
                f"process(es) — deadlock: {self._stuck_report()}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Engine(now={self.clock.now:.9f}, queued={len(self._heap)})"
