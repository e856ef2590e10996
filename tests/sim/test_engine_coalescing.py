"""Engine batching: same-instant coalescing and RESUME-event recycling.

The engine's ordering contract — events fire in ``(time, seq)`` order, seq
strictly increasing per schedule call — must survive two optimizations:
skipping redundant clock advances when consecutive pops share an instant,
and recycling retired RESUME events through a freelist.  These tests pin
the contract from the outside (observed firing order) and the recycling
mechanics from the inside (pool population, fresh seq numbers, the
subscriber opt-out).
"""

import pytest

from repro.sim.engine import Engine, EventKind, Timeout, WaitUntil


def ticker(log, label, delays):
    for delay in delays:
        yield Timeout(delay)
        log.append((label, delay))


class TestSameInstantCoalescing:
    def test_simultaneous_events_fire_in_seq_order(self):
        engine = Engine()
        order = []
        for label in "abc":
            engine.schedule(1.0, name=label, callback=lambda e: order.append(e.name))
        engine.schedule(0.5, name="first", callback=lambda e: order.append(e.name))
        engine.run()
        assert order == ["first", "a", "b", "c"]
        assert engine.now == 1.0

    def test_step_skips_redundant_advance_but_still_fires(self):
        engine = Engine()
        seen = []
        engine.schedule(0.0, callback=lambda e: seen.append(engine.now))
        engine.schedule(0.0, callback=lambda e: seen.append(engine.now))
        assert engine.step() is not None
        assert engine.step() is not None
        assert seen == [0.0, 0.0]

    def test_processes_interleave_deterministically_at_one_instant(self):
        engine = Engine()
        log = []
        engine.process(ticker(log, "a", [1.0, 1.0]), name="a")
        engine.process(ticker(log, "b", [1.0, 1.0]), name="b")
        engine.run()
        # Both resume at t=1 and t=2; within an instant, schedule order
        # (seq) decides — a before b, every round.
        assert log == [("a", 1.0), ("b", 1.0), ("a", 1.0), ("b", 1.0)]

    def test_run_until_matches_stepwise_execution(self):
        def build():
            engine = Engine()
            order = []
            for i, delay in enumerate([2.0, 1.0, 1.0, 3.0, 2.0]):
                engine.schedule(
                    delay, name=str(i), callback=lambda e: order.append(e.name)
                )
            return engine, order

        run_engine, run_order = build()
        run_engine.run()
        step_engine, step_order = build()
        while step_engine.step() is not None:
            pass
        assert run_order == step_order
        assert run_engine.now == step_engine.now


class TestResumeRecycling:
    def drain(self, engine):
        while engine.step() is not None:
            pass

    def test_pool_fills_from_retired_resumes(self):
        engine = Engine()
        log = []
        engine.process(ticker(log, "t", [1.0, 1.0, 1.0]), name="t")
        self.drain(engine)
        assert len(log) == 3
        assert len(engine._resume_pool) >= 1

    def test_recycled_events_draw_fresh_seq(self):
        engine = Engine()
        seqs = []
        engine.subscribe(
            EventKind.RESUME, lambda e: seqs.append(e.seq)
        )

        def proc():
            yield Timeout(1.0)
            yield Timeout(1.0)
            yield Timeout(1.0)

        engine.process(proc(), name="p")
        self.drain(engine)
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_subscribers_disable_recycling(self):
        # A handler may retain the event object, so the freelist must not
        # reuse events anyone could still observe.
        engine = Engine()
        retained = []
        engine.subscribe(EventKind.RESUME, retained.append)

        def proc():
            yield Timeout(1.0)
            yield Timeout(1.0)

        engine.process(proc(), name="p")
        self.drain(engine)
        assert engine._resume_pool == []
        assert len(retained) == 2
        assert len({id(event) for event in retained}) == 2

    def test_pool_is_bounded(self):
        engine = Engine()
        procs = 3 * Engine._RESUME_POOL_LIMIT

        def one_shot():
            yield Timeout(1.0)

        for i in range(procs):
            engine.process(one_shot(), name=f"p{i}")
        self.drain(engine)
        assert len(engine._resume_pool) <= Engine._RESUME_POOL_LIMIT

    def test_wait_until_uses_absolute_time(self):
        # WaitUntil(when) must schedule at `when` exactly, not at
        # now + (when - now), which differs in floating point.
        engine = Engine()
        times = []

        def proc():
            yield Timeout(0.1)
            yield WaitUntil(0.30000000000000004)
            times.append(engine.now)

        engine.process(proc(), name="p")
        self.drain(engine)
        assert times == [0.30000000000000004]


class TestSchedulingErrors:
    def test_negative_delay_rejected(self):
        engine = Engine()

        def proc():
            yield Timeout(-1.0)

        with pytest.raises(Exception, match="past"):
            engine.process(proc(), name="p")

    def test_wait_until_past_rejected(self):
        engine = Engine()
        engine.schedule(1.0, callback=lambda e: None)
        engine.run()

        def proc():
            yield WaitUntil(0.5)

        with pytest.raises(Exception):
            engine.process(proc(), name="p")
