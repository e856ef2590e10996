"""Unit tests for the discrete-event kernel (repro.sim.engine)."""

import pytest

from repro.sim.clock import Clock, ClockError
from repro.sim.engine import Engine, EngineError, EventKind


def stall(process):
    """Cancel ``process``'s resume event: it now waits on nothing that fires."""
    process._pending.cancel()


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(3.0, name="c", callback=lambda e: order.append(e.name))
        engine.schedule(1.0, name="a", callback=lambda e: order.append(e.name))
        engine.schedule(2.0, name="b", callback=lambda e: order.append(e.name))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 3.0

    def test_simultaneous_events_fire_in_scheduling_order(self):
        engine = Engine()
        order = []
        for name in "abcde":
            engine.schedule(1.0, name=name, callback=lambda e: order.append(e.name))
        engine.run()
        assert order == list("abcde")

    def test_schedule_at_absolute_time(self):
        engine = Engine()
        fired = []
        engine.schedule_at(5.0, callback=lambda e: fired.append(engine.now))
        engine.run()
        assert fired == [5.0]

    def test_scheduling_into_the_past_raises(self):
        engine = Engine()
        engine.schedule(1.0, callback=lambda e: None)
        engine.run()
        with pytest.raises(EngineError):
            engine.schedule(-0.5)
        with pytest.raises(EngineError):
            engine.schedule_at(0.5)

    def test_cancelled_events_do_not_fire(self):
        engine = Engine()
        fired = []
        ev = engine.schedule(1.0, callback=lambda e: fired.append("cancelled"))
        engine.schedule(2.0, callback=lambda e: fired.append("kept"))
        ev.cancel()
        engine.run()
        assert fired == ["kept"]

    def test_run_until_leaves_later_events_queued(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, callback=lambda e: fired.append(1.0))
        engine.schedule(5.0, callback=lambda e: fired.append(5.0))
        engine.run(until=2.0)
        assert fired == [1.0]
        assert engine.now == 2.0
        engine.run()
        assert fired == [1.0, 5.0]
        assert engine.now == 5.0

    def test_external_clock_is_shared(self):
        clock = Clock()
        engine = Engine(clock)
        engine.schedule(2.5, callback=lambda e: None)
        engine.run()
        assert clock.now == 2.5

    def test_clock_never_goes_backwards(self):
        engine = Engine()
        engine.schedule(1.0, callback=lambda e: None)
        engine.run()
        with pytest.raises(ClockError):
            engine.clock.advance_to(0.5)


class TestSubscriptions:
    def test_kind_subscription_sees_only_that_kind(self):
        engine = Engine()
        seen = []
        engine.subscribe(EventKind.FAULT, lambda e: seen.append(e.name))
        engine.schedule(1.0, EventKind.FAULT, name="f")
        engine.schedule(2.0, EventKind.TIMER, name="t")
        engine.run()
        assert seen == ["f"]

    def test_callback_runs_before_subscribers(self):
        engine = Engine()
        order = []
        engine.subscribe(EventKind.TIMER, lambda e: order.append("sub"))
        engine.schedule(1.0, callback=lambda e: order.append("cb"))
        engine.run()
        assert order == ["cb", "sub"]


class TestProcesses:
    def test_process_yields_advance_time(self):
        engine = Engine()
        trail = []

        def work():
            trail.append(engine.now)
            yield 1.5
            trail.append(engine.now)
            yield 0.5
            trail.append(engine.now)
            return "done"

        proc = engine.process(work(), name="w")
        result = engine.run_until_complete(proc)
        assert result == "done"
        assert trail == [0.0, 1.5, 2.0]
        assert proc.done

    def test_two_processes_interleave_deterministically(self):
        engine = Engine()
        trail = []

        def worker(name, delay, steps):
            for _ in range(steps):
                yield delay
                trail.append((name, engine.now))

        a = engine.process(worker("a", 1.0, 3), name="a")
        b = engine.process(worker("b", 1.5, 2), name="b")
        engine.run()
        assert a.done and b.done
        assert trail == [
            ("a", 1.0),
            ("b", 1.5),
            ("a", 2.0),
            ("b", 3.0),
            ("a", 3.0),
        ]

    def test_run_until_complete_stops_at_process_end(self):
        engine = Engine()
        fired = []
        engine.schedule(10.0, name="later", callback=lambda e: fired.append(e.name))

        def quick():
            yield 1.0

        proc = engine.process(quick())
        engine.run_until_complete(proc)
        # The later event must stay queued and the clock must not pass it.
        assert engine.now == 1.0
        assert fired == []
        engine.run()
        assert fired == ["later"]

    def test_deadlock_is_reported(self):
        engine = Engine()

        def sleeper():
            yield 1.0

        proc = engine.process(sleeper())
        stall(proc)
        with pytest.raises(EngineError, match="never"):
            engine.run_until_complete(proc)

    def test_unsupported_directive_raises(self):
        engine = Engine()

        def bad():
            yield "nonsense"

        with pytest.raises(EngineError, match="unsupported"):
            engine.process(bad())


class TestDeterminism:
    def test_identical_programs_produce_identical_event_logs(self):
        def run_once():
            engine = Engine()
            log = []

            def record(event):
                log.append((event.time, event.seq, event.kind.value))

            for kind in EventKind:
                engine.subscribe(kind, record)

            def worker(delay, steps):
                for _ in range(steps):
                    yield delay

            engine.process(worker(0.3, 5))
            engine.process(worker(0.5, 3))
            engine.schedule(1.0, EventKind.FAULT, name="f")
            engine.run()
            return log

        first = run_once()
        assert first == run_once()
        # Five and three resumes plus the fault: the log missed nothing.
        kinds = [kind for _, _, kind in first]
        assert kinds.count("resume") == 8 and kinds.count("fault") == 1

    def test_float_time_accumulation_matches_raw_clock(self):
        # The engine must advance time with the exact same float ops the
        # legacy loop used (now + delta), so accumulated times are
        # byte-identical, not merely close.
        deltas = [0.1, 0.2, 0.30000000000000004, 1e-9, 3.7]
        clock = Clock()
        for d in deltas:
            clock.advance(d)

        engine = Engine()

        def worker():
            for d in deltas:
                yield d

        engine.run_until_complete(engine.process(worker()))
        assert engine.now == clock.now


class TestInterrupt:
    def test_catch_and_continue(self):
        from repro.sim.engine import Interrupt

        engine = Engine()
        trail = []

        def work():
            try:
                yield 10.0
            except Interrupt:
                trail.append(("caught", engine.now))
            yield 1.0
            trail.append(("done", engine.now))

        proc = engine.process(work(), name="w")
        engine.schedule(2.0, callback=lambda _ev: proc.interrupt(Interrupt()))
        engine.run()
        assert proc.done and proc.error is None
        assert trail == [("caught", 2.0), ("done", 3.0)]

    def test_catch_and_return(self):
        from repro.sim.engine import Interrupt

        engine = Engine()

        def work():
            try:
                yield 10.0
            except Interrupt:
                return "cancelled"
            return "finished"

        proc = engine.process(work(), name="w")
        engine.schedule(1.0, callback=lambda _ev: proc.interrupt(Interrupt()))
        engine.run()
        assert proc.done
        assert proc.result == "cancelled"
        assert proc.error is None

    def test_uncaught_interrupt_records_error(self):
        from repro.sim.engine import Interrupt

        engine = Engine()

        def work():
            yield 10.0

        proc = engine.process(work(), name="w")
        engine.schedule(1.0, callback=lambda _ev: proc.interrupt(Interrupt("boom")))
        engine.run()
        assert proc.done
        assert isinstance(proc.error, Interrupt)

    def test_pending_resume_event_is_cancelled(self):
        from repro.sim.engine import Interrupt

        engine = Engine()
        resumed = []

        def work():
            yield 10.0
            resumed.append(engine.now)

        proc = engine.process(work(), name="w")
        engine.schedule(1.0, callback=lambda _ev: proc.interrupt(Interrupt()))
        engine.run()
        # The original resume-at-t=10 must not fire: time never reaches it.
        assert resumed == []
        assert engine.now == 1.0

    def test_interrupting_a_done_process_raises(self):
        from repro.sim.engine import Interrupt

        engine = Engine()

        def quick():
            yield 0.5

        proc = engine.process(quick(), name="q")
        engine.run()
        with pytest.raises(EngineError, match="already completed"):
            proc.interrupt(Interrupt())

    def test_unrelated_exception_from_generator_is_reraised(self):
        from repro.sim.engine import Interrupt

        engine = Engine()

        def buggy():
            try:
                yield 10.0
            except Interrupt:
                raise RuntimeError("cleanup bug")

        proc = engine.process(buggy(), name="b")
        with pytest.raises(RuntimeError, match="cleanup bug"):
            proc.interrupt(Interrupt())
        assert proc.done


class TestDiagnostics:
    def test_waiting_on_names_the_pending_event(self):
        engine = Engine()

        def sleeper():
            yield 3.5

        proc = engine.process(sleeper(), name="s")
        desc = proc.waiting_on()
        assert "resume" in desc and "3.5" in desc

    def test_deadlock_report_names_every_stuck_process(self):
        engine = Engine()

        def sleeper():
            yield 1.0

        stall(engine.process(sleeper(), name="greedy"))
        proc = engine.process(sleeper(), name="starved")
        stall(proc)
        with pytest.raises(EngineError) as err:
            engine.run_until_complete(proc)
        message = str(err.value)
        assert "'greedy' is waiting on cancelled resume event" in message
        assert "'starved' is waiting on cancelled resume event" in message
        assert "will never fire" in message

    def test_ensure_quiescent_passes_when_all_complete(self):
        engine = Engine()

        def quick():
            yield 0.1

        engine.process(quick(), name="q")
        engine.run()
        engine.ensure_quiescent()  # must not raise

    def test_ensure_quiescent_raises_on_stuck_process(self):
        engine = Engine()

        def quick():
            yield 1.0

        engine.process(quick(), name="finisher")
        stall(engine.process(quick(), name="waiter"))
        engine.run()  # drains silently: waiter's resume never fires
        with pytest.raises(EngineError, match="1 unfinished") as err:
            engine.ensure_quiescent()
        assert "'waiter'" in str(err.value)
        assert "'finisher'" not in str(err.value)
