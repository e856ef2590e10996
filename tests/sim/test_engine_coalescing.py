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

from repro.sim.engine import Engine, EventKind


def ticker(log, label, delays):
    for delay in delays:
        yield delay
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

    def test_processes_interleave_deterministically_at_one_instant(self):
        engine = Engine()
        log = []
        engine.process(ticker(log, "a", [1.0, 1.0]), name="a")
        engine.process(ticker(log, "b", [1.0, 1.0]), name="b")
        engine.run()
        # Both resume at t=1 and t=2; within an instant, schedule order
        # (seq) decides — a before b, every round.
        assert log == [("a", 1.0), ("b", 1.0), ("a", 1.0), ("b", 1.0)]


class TestResumeRecycling:
    def test_pool_fills_from_retired_resumes(self):
        engine = Engine()
        log = []
        engine.process(ticker(log, "t", [1.0, 1.0, 1.0]), name="t")
        engine.run()
        assert len(log) == 3
        assert len(engine._resume_pool) >= 1

    def test_recycled_events_draw_fresh_seq(self):
        engine = Engine()
        seqs = []
        engine.subscribe(
            EventKind.RESUME, lambda e: seqs.append(e.seq)
        )

        def proc():
            yield 1.0
            yield 1.0
            yield 1.0

        engine.process(proc(), name="p")
        engine.run()
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_subscribers_disable_recycling(self):
        # A handler may retain the event object, so the freelist must not
        # reuse events anyone could still observe.
        engine = Engine()
        retained = []
        engine.subscribe(EventKind.RESUME, retained.append)

        def proc():
            yield 1.0
            yield 1.0

        engine.process(proc(), name="p")
        engine.run()
        assert engine._resume_pool == []
        assert len(retained) == 2
        assert len({id(event) for event in retained}) == 2

    def test_pool_is_bounded(self):
        engine = Engine()
        procs = 3 * Engine._RESUME_POOL_LIMIT

        def one_shot():
            yield 1.0

        for i in range(procs):
            engine.process(one_shot(), name=f"p{i}")
        engine.run()
        assert len(engine._resume_pool) <= Engine._RESUME_POOL_LIMIT


class TestSchedulingErrors:
    def test_negative_delay_rejected(self):
        engine = Engine()

        def proc():
            yield -1.0

        with pytest.raises(Exception, match="past"):
            engine.process(proc(), name="p")
