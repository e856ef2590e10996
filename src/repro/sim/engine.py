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
* typed events (:class:`EventKind`) with a subscription surface, so
  observers (migration commit, Sentinel prefetch bookkeeping, cluster
  statistics) react to completions without polling;
* named :class:`Resource` objects with FIFO or priority wait queues for
  serially-shared facilities;
* process-style coroutines (:class:`Process`) for long-running activities:
  a generator yields :class:`Timeout`/:class:`WaitUntil`/:class:`Acquire`
  directives and the engine resumes it at the right simulated instant,
  interleaved with every other process on the machine.

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
    "Resource",
    "Timeout",
    "WaitUntil",
    "Acquire",
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
    """The event taxonomy (one lane per subsystem concern).

    Attributes:
        TIMER: a plain scheduled callback (``engine.call_at/call_later``).
        RESUME: a process resuming after a yield (timeout or wait).
        TRANSFER_DONE: a :class:`~repro.sim.channel.BandwidthChannel`
            transfer's last byte arrived; payload carries ``transfer`` and
            ``channel``.  Migration commit and prefetch bookkeeping
            subscribe to this.
        GRANT: a :class:`Resource` slot was granted to a waiter.
        FAULT: an injected fault fired (chaos/migration/device); payload
            names the concern.
        PRESSURE: a pressure-governor action (reclaim, spill, watermark).
        SERVE: serving-layer lifecycle (job arrival, admission, shedding,
            retry, restart, completion — see :mod:`repro.serve`).
    """

    TIMER = "timer"
    RESUME = "resume"
    TRANSFER_DONE = "transfer-done"
    GRANT = "grant"
    FAULT = "fault"
    PRESSURE = "pressure"
    SERVE = "serve"


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


# --------------------------------------------------------------- directives


@dataclass(frozen=True)
class Timeout:
    """Process directive: resume after ``delay`` simulated seconds."""

    delay: float


@dataclass(frozen=True)
class WaitUntil:
    """Process directive: resume at absolute time ``when`` (>= now)."""

    when: float


@dataclass(frozen=True)
class Acquire:
    """Process directive: block until a :class:`Resource` slot is granted.

    ``priority`` orders the wait queue when the resource is in priority
    mode (lower value is served first); FIFO resources ignore it.
    """

    resource: "Resource"
    priority: int = 0


class Process:
    """A generator coroutine driven by the engine.

    The generator yields directives (a plain ``float``/``int`` is shorthand
    for :class:`Timeout`) and is resumed by the engine at the corresponding
    simulated instant.  Its ``return`` value is captured as :attr:`result`.

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
        self._waiting = False
        #: the scheduled event that will resume this process (for cancel)
        self._pending: Optional[Event] = None
        #: the resource this process is queued on (or was just granted)
        self._blocked: Optional["Resource"] = None
        #: one resume trampoline for the process's whole lifetime — the
        #: dispatch fast path hands this to the scheduler instead of
        #: closing over a fresh lambda per yield
        self._resume = self._on_resume

    def _on_resume(self, _event: "Event") -> None:
        self._step()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else ("waiting" if self._waiting else "ready")
        return f"Process({self.name!r}, {state})"

    def waiting_on(self) -> str:
        """Human-readable description of what the process is blocked on.

        The deadlock diagnostics quote this, so it names the concrete
        resource or event rather than just saying "waiting".
        """
        if self.done:
            return "nothing (completed)"
        if self._blocked is not None and self._pending is None:
            resource = self._blocked
            return (
                f"resource {resource.name!r} "
                f"({resource.in_use}/{resource.capacity} slots held, "
                f"{resource.waiting} queued)"
            )
        if self._pending is not None:
            event = self._pending
            if event.cancelled:
                return (
                    f"cancelled {event.kind.value} event {event.name!r} "
                    "that will never fire"
                )
            return f"{event.kind.value} event {event.name!r} at t={event.time:.9f}"
        return "nothing (ready to run)"

    # The engine calls this to advance the generator to its next directive.
    def _step(self, value: Any = None) -> None:
        if self.done:
            raise EngineError(f"process {self.name!r} resumed after completion")
        self._waiting = False
        self._pending = None
        self._blocked = None
        try:
            directive = self.gen.send(value)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            self.engine._on_process_done(self)
            return
        self._dispatch(directive)

    def interrupt(self, exc: BaseException) -> None:
        """Throw ``exc`` into the process at its current yield point.

        The process is first detached from whatever it waits on — its
        pending resume/grant event is cancelled, it is removed from any
        resource wait queue, and an already-granted-but-undelivered slot is
        returned — then the exception is delivered via ``generator.throw``.
        Three outcomes:

        * the generator catches ``exc`` and yields again — the process
          continues with the new directive;
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
            if self._blocked is not None:
                # A grant event was already scheduled: the slot is counted
                # as held, so hand it back to the next waiter.
                self._blocked.release()
        elif self._blocked is not None:
            self._blocked._remove_waiter(self)
        self._pending = None
        self._blocked = None
        self._waiting = False
        try:
            directive = self.gen.throw(exc)
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
        self._dispatch(directive)

    def _dispatch(self, directive: Any) -> None:
        engine = self.engine
        self._waiting = True
        if isinstance(directive, (int, float)):
            self._pending = engine._schedule_resume(
                float(directive), self.name, self._resume
            )
        elif isinstance(directive, Timeout):
            self._pending = engine._schedule_resume(
                directive.delay, self.name, self._resume
            )
        elif isinstance(directive, WaitUntil):
            self._pending = engine._schedule_resume_at(
                directive.when, self.name, self._resume
            )
        elif isinstance(directive, Acquire):
            self._blocked = directive.resource
            directive.resource._enqueue(self, directive.priority)
        else:
            raise EngineError(
                f"process {self.name!r} yielded unsupported directive "
                f"{directive!r}"
            )


class Resource:
    """A named serially-shared facility with a deterministic wait queue.

    Args:
        name: label used in events and error messages.
        capacity: concurrent holders allowed (>= 1).
        priority: ``False`` (default) serves waiters FIFO; ``True`` serves
            by ``(priority, arrival seq)`` — lower priority value first,
            arrival order breaking ties.

    Processes acquire with ``grant = yield Acquire(resource)`` and must
    call :meth:`release` when finished.  Each grant fires a
    :data:`EventKind.GRANT` event so observers can audit contention.
    """

    def __init__(
        self, name: str = "resource", capacity: int = 1, priority: bool = False
    ) -> None:
        if capacity < 1:
            raise ValueError(f"resource capacity must be >= 1, got {capacity!r}")
        self.name = name
        self.capacity = capacity
        self.priority_mode = priority
        self.engine: Optional[Engine] = None
        self.in_use = 0
        self.grants = 0
        self._arrivals = itertools.count()
        self._waiters: List[Tuple[int, int, Process]] = []  # (prio, arrival, proc)

    def bind_engine(self, engine: "Engine") -> None:
        """Adopt ``engine`` as the scheduler for grant events."""
        self.engine = engine

    @property
    def waiting(self) -> int:
        """Processes currently queued for a slot."""
        return len(self._waiters)

    def _enqueue(self, process: Process, priority: int) -> None:
        if self.engine is None:
            self.bind_engine(process.engine)
        key = priority if self.priority_mode else 0
        heapq.heappush(self._waiters, (key, next(self._arrivals), process))
        self._grant_free_slots()

    def _grant_free_slots(self) -> None:
        engine = self.engine
        assert engine is not None
        while self._waiters and self.in_use < self.capacity:
            _, _, process = heapq.heappop(self._waiters)
            self.in_use += 1
            self.grants += 1
            event = engine.schedule(
                0.0,
                EventKind.GRANT,
                name=self.name,
                payload={"resource": self, "process": process},
                callback=lambda _ev, p=process: p._step(self),
            )
            # Record the grant on the process so interrupt() can cancel the
            # delivery and return the slot (_blocked stays set to us).
            process._pending = event

    def _remove_waiter(self, process: Process) -> None:
        """Drop ``process`` from the wait queue (interrupt support)."""
        remaining = [entry for entry in self._waiters if entry[2] is not process]
        if len(remaining) != len(self._waiters):
            self._waiters = remaining
            heapq.heapify(self._waiters)

    def release(self) -> None:
        """Return one slot; the next waiter (if any) is granted it."""
        if self.in_use <= 0:
            raise EngineError(f"resource {self.name!r} released more than acquired")
        self.in_use -= 1
        if self._waiters and self.engine is not None:
            self._grant_free_slots()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Resource({self.name!r}, {self.in_use}/{self.capacity} in use, "
            f"{len(self._waiters)} waiting)"
        )


class Engine:
    """The discrete-event scheduler: one heap, one clock, many processes.

    Args:
        clock: time source to drive; a fresh :class:`Clock` at 0 by
            default.  The executor passes its own clock so legacy
            accounting (stats registries, tracers bound to it) keeps
            stamping correctly.
    """

    #: retired RESUME events kept for reuse (bounds allocator churn without
    #: hoarding memory when many processes block at once)
    _RESUME_POOL_LIMIT = 64

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock if clock is not None else Clock()
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._subscribers: Dict[EventKind, List[Callable[[Event], None]]] = {}
        self._any_subscribers: List[Callable[[Event], None]] = []
        self.fired = 0  # events actually delivered (cancelled ones excluded)
        self._processes: List[Process] = []
        #: freelist of retired RESUME Event objects (see _schedule_resume)
        self._resume_pool: List[Event] = []

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def pending(self) -> int:
        """Events still queued (including cancelled placeholders)."""
        return len(self._heap)

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
    # ``_resume_pool`` (refilled at pop time in step()/run(), strictly
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
        return self._schedule_resume_at(self.clock.now + delay, name, callback)

    def _schedule_resume_at(
        self, when: float, name: str, callback: Callable[["Event"], None]
    ) -> Event:
        """Schedule a process resume at absolute time ``when`` (>= now)."""
        if when < self.clock.now:
            raise EngineError(
                f"cannot schedule at {when!r}, now is {self.clock.now!r}"
            )
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
        events when someone subscribed to them or to everything, since a
        handler may legitimately retain what it saw — are left to the
        garbage collector.
        """
        if (
            event.kind is EventKind.RESUME
            and not self._any_subscribers
            and not self._subscribers.get(EventKind.RESUME)
            and len(self._resume_pool) < self._RESUME_POOL_LIMIT
        ):
            event.callback = None
            if event.payload:
                event.payload.clear()
            self._resume_pool.append(event)

    def emit(
        self,
        kind: EventKind,
        name: str = "",
        payload: Optional[Dict[str, Any]] = None,
    ) -> Event:
        """Fire an event at the current instant, synchronously.

        For occurrences that *happen now* as a side effect of running code
        (a pressure reclaim, an injected fault) rather than being scheduled
        ahead of time: subscribers run before ``emit`` returns.  The event
        still consumes a sequence number, so emitted and scheduled events
        share one deterministic total order.
        """
        event = Event(
            time=self.clock.now,
            seq=next(self._seq),
            kind=kind,
            name=name,
            payload=payload if payload is not None else {},
        )
        self._fire(event)
        return event

    # ---------------------------------------------------------- subscription

    def subscribe(
        self, kind: Optional[EventKind], handler: Callable[[Event], None]
    ) -> None:
        """Register ``handler`` for every fired event of ``kind``.

        ``kind=None`` subscribes to *all* events (tracing bridges).
        Handlers run synchronously, in subscription order, after the
        event's own callback.
        """
        if kind is None:
            self._any_subscribers.append(handler)
        else:
            self._subscribers.setdefault(kind, []).append(handler)

    def unsubscribe(
        self, kind: Optional[EventKind], handler: Callable[[Event], None]
    ) -> None:
        """Remove a previously-registered handler (no-op if absent)."""
        bucket = (
            self._any_subscribers
            if kind is None
            else self._subscribers.get(kind, [])
        )
        if handler in bucket:
            bucket.remove(handler)

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
        self.fired += 1
        if event.callback is not None:
            event.callback(event)
        for handler in self._subscribers.get(event.kind, ()):
            handler(event)
        for handler in self._any_subscribers:
            handler(event)

    def step(self) -> Optional[Event]:
        """Pop and fire the next event; returns it (None if queue empty).

        Cancelled events are discarded silently and do not count as a step.
        Same-instant pops are coalesced onto one clock position: the clock
        only moves when the popped event's time actually differs, so a
        burst of simultaneous TIMER/TRANSFER_DONE/RESUME events costs one
        advance, not one per event — with ``(time, seq)`` firing order
        unchanged.
        """
        clock = self.clock
        while self._heap:
            _, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                self._retire(event)
                continue
            if event.time != clock.now:
                clock.advance_to(event.time)
            self._fire(event)
            self._retire(event)
            return event
        return None

    def run(self, until: Optional[float] = None) -> None:
        """Fire events in order until the queue empties (or past ``until``).

        With ``until`` given, events strictly after it stay queued and the
        clock is left at the later of its current value and ``until``.
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
            # Inlined step(): this loop brackets every simulated instant of
            # an engine-driven training step, so the dispatch overhead is
            # paid once per event of the whole run.
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
        processes remain blocked on resources or cancelled events — callers
        that expect every process to complete (the cluster and serving
        harnesses) call this afterwards to turn a silent partial run into a
        diagnosable failure naming each stuck process.
        """
        if self._processes:
            raise EngineError(
                f"event queue drained with {len(self._processes)} unfinished "
                f"process(es) — deadlock: {self._stuck_report()}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Engine(now={self.clock.now:.9f}, pending={len(self._heap)}, "
            f"fired={self.fired})"
        )
