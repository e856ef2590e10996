"""Self-time arithmetic of the span recorder on a synthetic call tree."""

import sys
import types

import pytest

import spans


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def work(self, seconds):
        self.t += seconds


#: Source of the throwaway module: functions look each other up as module
#: globals, the way the wrappers expect real call sites to.
FAKE_SOURCE = '''
class Outer:
    def run(self, depth):
        clock.work(1.0)
        inner(depth)
        clock.work(0.5)
        return "done"

    @classmethod
    def build(cls):
        clock.work(0.25)
        return cls()

    def steps(self, n):
        for i in range(n):
            clock.work(2.0)
            try:
                yield i
            except KeyError:
                clock.work(0.125)
                return "interrupted"
        return "finished"


def inner(depth):
    clock.work(1.0)
    if depth:
        inner(depth - 1)  # same layer: no new span


def drive(gen):
    """Resumes a generator the way the event engine does."""
    result = yield from gen
    clock.work(0.75)
    return result


def engine(gen):
    clock.work(0.5)
    try:
        while True:
            next(gen)
            clock.work(0.5)
    except StopIteration as stop:
        return stop.value
'''


@pytest.fixture
def fake():
    """A throwaway module with one layer per function family."""
    clock = FakeClock()
    module = types.ModuleType("fake_layers")
    module.clock = clock
    exec(FAKE_SOURCE, module.__dict__)
    sys.modules["fake_layers"] = module
    table = {
        "outer": ("fake_layers:Outer.run", "fake_layers:Outer.build"),
        "inner": ("fake_layers:inner",),
        "gen": ("fake_layers:Outer.steps",),
        "engine": ("fake_layers:engine",),
    }
    recorder = spans.SpanRecorder(layers=tuple(table), clock=clock)
    boundaries = spans.Boundaries(recorder, table).install()
    yield clock, module, recorder, boundaries
    boundaries.uninstall()
    del sys.modules["fake_layers"]


def test_nested_self_times_sum_to_the_root(fake):
    clock, module, recorder, boundaries = fake
    recorder.open_root()
    clock.work(0.25)
    outer = module.Outer.build()
    assert outer.run(2) == "done"
    clock.work(0.25)
    assert recorder.close_root() == pytest.approx(5.25)
    times = recorder.self_times()
    assert times["outer"] == (pytest.approx(1.75), 2)
    assert times["inner"] == (pytest.approx(3.0), 1)  # re-entry is not a crossing
    assert times[spans.ROOT] == (pytest.approx(0.5), 0)
    assert sum(own for own, _ in times.values()) == pytest.approx(5.25)
    assert boundaries.hits == [1, 1, 3, 0, 0]
    assert boundaries.unreached() == ["fake_layers:Outer.steps", "fake_layers:engine"]


def test_generator_resumes_are_timed_in_their_own_layer(fake):
    clock, module, recorder, _ = fake
    recorder.open_root()
    result = module.engine(module.drive(module.Outer().steps(3)))
    recorder.close_root()
    assert result == "finished"
    times = recorder.self_times()
    # Three resumes do 2.0 each; the final resume only returns.
    assert times["gen"] == (pytest.approx(6.0), 4)
    # The engine keeps its own 0.5 + 3 x 0.5, plus the 0.75 of the
    # un-wrapped ``drive`` that runs inside the engine's span.
    assert times["engine"] == (pytest.approx(2.75), 1)
    assert recorder.generator_s == [pytest.approx(6.0)]


def test_generator_proxy_forwards_throw_and_return(fake):
    clock, module, recorder, _ = fake
    recorder.open_root()
    gen = module.Outer().steps(5)
    assert gen.send(None) == 0
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("x"))
    recorder.close_root()
    assert stop.value.value == "interrupted"
    assert recorder.generator_s == [pytest.approx(2.125)]
    assert recorder.self_times()["gen"] == (pytest.approx(2.125), 2)


def test_uninstall_restores_originals(fake):
    _, module, _, boundaries = fake
    assert module.Outer.run.__name__ == "wrapper"
    boundaries.uninstall()
    assert module.Outer.run.__name__ == "run"
    assert module.Outer.__dict__["build"].__func__.__name__ == "build"
    assert module.inner.__name__ == "inner"


def test_unknown_boundary_is_refused():
    with pytest.raises(AttributeError):
        spans.resolve("repro.dnn.policy:PlacementPolicy.no_such_method")
    # Inherited methods must be listed on the class that defines them.
    with pytest.raises(AttributeError):
        spans.resolve("repro.baselines.ial:IALPolicy.on_step_start")
