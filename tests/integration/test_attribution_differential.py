"""Differential suite for the critical-path attribution engine.

Two independent measurements of the same runs must agree:

* the trace-derived per-step decomposition must sum exactly (within float
  tolerance) to the measured step duration — on every zoo model, at the
  paper's 20% fast-memory operating point;
* each step's layer spans must run back to back, with the gaps before the
  first layer and after the last equal to the boundary stalls the
  step-end event reports — on random graphs via hypothesis, and on a
  sentinel-gpu run whose two-copy sync opens one step with a stall.  That
  chain tiles the step window, which is why ``repro run --critpath`` reads
  a step's critical path straight off it.
"""

import functools

import pytest
from hypothesis import given, strategies as st

from repro.harness.runner import STEADY_STEPS, run_policy
from repro.mem.platforms import GPU_HM
from repro.models.zoo import MODELS
from repro.obs import EventTracer, TraceQuery
from repro.obs.critpath import attribute

from tests.golden.corpus import Cell, digests, load
from tests.integration.test_trace_invariants import (
    INVARIANT_SETTINGS,
    traced_sentinel_run,
)

#: Attribution components are sums of dozens of trace-derived floats, and
#: a boundary gap is a difference of clock readings; this bounds their
#: accumulated rounding error.
SUM_TOLERANCE = 1e-6


@functools.lru_cache(maxsize=None)
def attributed_run(model):
    """One traced sentinel run per model at 20% fast memory, attributed.

    Every test here shares it.  The call is also the model's plain
    sentinel cell of the golden corpus, so its corpus digests come back
    too and the corpus is asserted without running the cell twice.
    """
    tracer = EventTracer(capacity=1 << 18)
    metrics = run_policy("sentinel", model=model, fast_fraction=0.2, tracer=tracer)
    assert tracer.dropped == 0, "raise capacity: attribution needs full traces"
    attribution = attribute(tracer.events, dropped=tracer.dropped)
    return attribution, metrics, digests(metrics, tracer)


class TestExactSumOnZoo:
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_components_sum_to_step_duration(self, model):
        attribution, _, recorded = attributed_run(model)
        assert recorded == load()[Cell("sentinel", model).key]
        assert len(attribution) > 0
        for step in attribution:
            components = step.components()
            assert sum(components.values()) == pytest.approx(
                step.duration, abs=SUM_TOLERANCE
            ), (model, step.step, components)
            for name, value in components.items():
                assert value >= 0.0, (model, step.step, name)

    def test_measured_step_agrees_with_runner_counters(self):
        # The attribution of the measured (last) step must reproduce the
        # executor's own counters for it: same stall, same fault time.
        attribution, metrics, _ = attributed_run("dcgan")
        last = attribution.steps[-1]
        assert last.duration == pytest.approx(metrics.step_time, abs=1e-9)
        assert last.stall == pytest.approx(metrics.stall_time, abs=1e-9)
        assert last.fault == pytest.approx(metrics.fault_time, abs=1e-9)


class TestWhatIfBounds:
    def test_free_migration_bounds_measured_sentinel_speedup(self):
        # The free-migration what-if is a lower bound on achievable step
        # time, so the speedup it implies must be at least the speedup any
        # real policy change could deliver from the same schedule — in
        # particular it can never fall below 1x, and the hypothetical step
        # time can never exceed the measured one.
        for model in ("dcgan", "lstm", "resnet32"):
            attribution, _, _ = attributed_run(model)
            measured = attribution.median_step_time(last=STEADY_STEPS)
            free = attribution.what_if_free_migration(last=STEADY_STEPS)
            assert free <= measured + SUM_TOLERANCE, model
            assert free >= 0.0, model
            # Bandwidth scaling interpolates between measured and free.
            doubled = attribution.what_if_bandwidth_scale(
                2.0, last=STEADY_STEPS
            )
            assert free - SUM_TOLERANCE <= doubled <= measured + SUM_TOLERANCE


def assert_layers_tile_steps(query):
    """Check every step's layer chain against its boundary stalls; return
    the step spans."""
    steps = query.spans(cat="step", name="step")
    layer_spans = query.spans(cat="step", name="layer")
    assert steps, "run produced no step spans"
    for step in steps:
        number = step.args["step"]
        layers = [
            layer
            for layer in layer_spans
            if step.start <= layer.start and layer.end <= step.end
        ]
        assert layers, f"step {number}: no layer spans"
        # Nothing advances the executor's clock between one layer's end and
        # the next one's begin, so each layer starts at the very timestamp
        # its predecessor ended.
        for before, after in zip(layers, layers[1:]):
            assert before.end == after.start, (
                f"step {number}: gap or overlap between layers "
                f"{before.args['layer']} and {after.args['layer']}"
            )
        # Outside the layers, the step holds only its boundary stalls.
        assert layers[0].start - step.start == pytest.approx(
            step.args["pre_stall"], abs=SUM_TOLERANCE
        ), f"step {number}: lead-in differs from pre_stall"
        assert step.end - layers[-1].end == pytest.approx(
            step.args["post_stall"], abs=SUM_TOLERANCE
        ), f"step {number}: tail differs from post_stall"
    return steps


class TestCriticalPathProperty:
    @given(seed=st.integers(min_value=0, max_value=10**4))
    @INVARIANT_SETTINGS
    def test_layers_tile_each_step_between_its_boundary_stalls(self, seed):
        query, _ = traced_sentinel_run(seed)
        assert_layers_tile_steps(query)

    def test_boundary_stall_sits_outside_the_layers(self):
        # Sentinel on the CPU platform reports no boundary stalls; the GPU
        # runtime's one-time two-copy sync opens a step with one.
        tracer = EventTracer(capacity=1 << 18)
        run_policy("sentinel-gpu", model="dcgan", platform=GPU_HM, tracer=tracer)
        assert tracer.dropped == 0
        steps = assert_layers_tile_steps(TraceQuery(tracer.events))
        assert any(step.args["pre_stall"] > 0.0 for step in steps)

    @given(seed=st.integers(min_value=0, max_value=10**4))
    @INVARIANT_SETTINGS
    def test_attribution_sums_hold_under_chaos(self, seed):
        query, _ = traced_sentinel_run(seed, fault_rate=0.2)
        for step in attribute(query.events):
            assert sum(step.components().values()) == pytest.approx(
                step.duration, abs=SUM_TOLERANCE
            )
