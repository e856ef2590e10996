"""Critical-path attribution: exact-sum decomposition, what-if queries,
truncation refusal."""

import pytest

from repro.errors import TraceTruncatedError
from repro.obs import EventTracer
from repro.obs.critpath import attribute


def build_tracer():
    """One synthetic 10s step: two layers, a promote transfer with queueing,
    a reclaim-tagged demote, and boundary stalls on the step-end event."""
    tracer = EventTracer()
    tracer.begin("step", "step", ts=0.0, step=0)
    tracer.begin("layer", "step", ts=0.5, layer=0)
    tracer.end("layer", "step", ts=4.5, exec=3.0, stall=0.75, fault=0.25)
    tracer.begin("layer", "step", ts=4.5, layer=1)
    tracer.end("layer", "step", ts=9.75, exec=4.0, stall=1.0, fault=0.0)
    tracer.end("step", "step", ts=10.0, step=0, pre_stall=0.5, post_stall=0.25)
    tracer.complete(
        "xfer", "channel", ts=1.0, dur=2.0, track="promote", nbytes=4096, queued=1.2
    )
    tracer.complete(
        "xfer",
        "channel",
        ts=3.5,
        dur=1.0,
        track="demote",
        nbytes=2048,
        tag="pressure-reclaim",
    )
    tracer.complete("promote", "migration", ts=1.0, dur=2.0, nbytes=4096)
    return tracer


class TestAttribute:
    def test_exact_component_decomposition(self):
        (step,) = attribute(build_tracer().events).steps
        assert step.duration == 10.0
        assert step.compute == pytest.approx(7.0)
        assert step.fault == pytest.approx(0.25)
        # stall total 2.5 = layer stalls 1.75 + boundary stalls 0.75,
        # subdivided: contention capped by queued evidence, reclaim by
        # in-window tagged service time, remainder is migration stall.
        assert step.channel_contention == pytest.approx(1.2)
        assert step.pressure_reclaim == pytest.approx(1.0)
        assert step.migration_stall == pytest.approx(0.3)
        assert step.stall == pytest.approx(2.5)
        assert step.idle == pytest.approx(0.25)
        assert sum(step.components().values()) == pytest.approx(step.duration)

    def test_aborted_channel_spans_carry_no_evidence(self):
        tracer = EventTracer()
        tracer.begin("step", "step", ts=0.0, step=0)
        tracer.begin("layer", "step", ts=0.0, layer=0)
        tracer.end("layer", "step", ts=4.0, exec=2.0, stall=2.0, fault=0.0)
        tracer.end("step", "step", ts=4.0, step=0)
        tracer.complete(
            "xfer",
            "channel",
            ts=1.0,
            dur=1.0,
            track="promote",
            queued=5.0,
            aborted=True,
        )
        (step,) = attribute(tracer.events).steps
        assert step.channel_contention == 0.0
        assert step.migration_stall == pytest.approx(2.0)

    def test_contention_capped_by_stall(self):
        tracer = EventTracer()
        tracer.begin("step", "step", ts=0.0, step=0)
        tracer.begin("layer", "step", ts=0.0, layer=0)
        tracer.end("layer", "step", ts=4.0, exec=3.5, stall=0.5, fault=0.0)
        tracer.end("step", "step", ts=4.0, step=0)
        tracer.complete(
            "xfer", "channel", ts=0.5, dur=1.0, track="demand-promote", queued=99.0
        )
        (step,) = attribute(tracer.events).steps
        assert step.channel_contention == pytest.approx(0.5)
        assert step.migration_stall == 0.0
        assert sum(step.components().values()) == pytest.approx(4.0)

    def test_refuses_truncated_trace(self):
        events = build_tracer().events
        with pytest.raises(TraceTruncatedError) as excinfo:
            attribute(events, dropped=3)
        assert excinfo.value.dropped == 3
        assert "attribution may be partial" in str(excinfo.value)

    def test_what_if_queries(self):
        (step,) = attribute(build_tracer().events).steps
        assert step.free_migration_time == pytest.approx(step.duration - 2.5)
        assert step.bandwidth_scaled_time(2.0) == pytest.approx(
            step.duration - 1.25
        )
        # Infinite bandwidth converges on the free-migration bound.
        assert step.bandwidth_scaled_time(1e12) == pytest.approx(
            step.free_migration_time
        )
        with pytest.raises(ValueError):
            step.bandwidth_scaled_time(0.0)

    def test_aggregation_over_steps(self):
        tracer = EventTracer()
        for index, width in enumerate((4.0, 2.0, 3.0)):
            start = sum((4.0, 2.0, 3.0)[:index])
            tracer.begin("step", "step", ts=start, step=index)
            tracer.begin("layer", "step", ts=start, layer=0)
            tracer.end("layer", "step", ts=start + width, exec=width, stall=0.0, fault=0.0)
            tracer.end("step", "step", ts=start + width, step=index)
        attribution = attribute(tracer.events)
        assert len(attribution) == 3
        assert attribution.median_step_time() == 3.0
        assert attribution.median_step_time(last=2) == 2.5
        assert attribution.totals()["compute"] == pytest.approx(9.0)
        assert attribution.what_if_free_migration() == 3.0

    def test_empty_attribution_rejects_statistics(self):
        attribution = attribute([])
        assert len(attribution) == 0
        with pytest.raises(ValueError):
            attribution.median_step_time()

