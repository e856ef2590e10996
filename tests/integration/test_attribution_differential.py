"""Differential suite for the critical-path attribution engine.

Two independent measurements of the same runs must agree:

* the trace-derived per-step decomposition must sum exactly (within float
  tolerance) to the measured step duration — on every zoo model, at the
  paper's 20% fast-memory operating point;
* the critical path extracted from the reconstructed dependency DAG must
  be a real path (consecutive nodes connected by edges) whose summed
  duration equals the step makespan — on random graphs via hypothesis.
"""

import functools

import pytest
from hypothesis import given, strategies as st

from repro.harness.runner import STEADY_STEPS, run_policy
from repro.models.zoo import MODELS
from repro.obs import EventTracer
from repro.obs.critpath import attribute, build_step_dags, critical_path

from tests.golden.corpus import Cell, digests, load
from tests.integration.test_trace_invariants import (
    INVARIANT_SETTINGS,
    traced_sentinel_run,
)

#: Attribution components and DAG path lengths are sums of dozens of
#: trace-derived floats; this bounds their accumulated rounding error.
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


class TestCriticalPathProperty:
    @given(seed=st.integers(min_value=0, max_value=10**4))
    @INVARIANT_SETTINGS
    def test_critical_path_is_a_real_path_with_makespan_length(self, seed):
        query, _ = traced_sentinel_run(seed)
        dags = build_step_dags(query.events)
        assert dags, "run produced no step DAGs"
        for dag in dags:
            path = critical_path(dag)
            assert path, f"step {dag.step}: empty critical path"
            # A real path: every consecutive pair is an edge of the DAG.
            for src, dst in zip(path, path[1:]):
                assert dst.uid in dag.edges[src.uid], (
                    f"step {dag.step}: {src.label} -> {dst.label} is not an edge"
                )
            # Longest-path length is exactly the step makespan.
            length = sum(node.duration for node in path)
            assert length == pytest.approx(dag.makespan, abs=SUM_TOLERANCE), (
                f"step {dag.step}: path {length} != makespan {dag.makespan}"
            )

    @given(seed=st.integers(min_value=0, max_value=10**4))
    @INVARIANT_SETTINGS
    def test_attribution_sums_hold_under_chaos(self, seed):
        query, _ = traced_sentinel_run(seed, fault_rate=0.2)
        for step in attribute(query.events):
            assert sum(step.components().values()) == pytest.approx(
                step.duration, abs=SUM_TOLERANCE
            )
