"""TraceQuery: filtering, span reconstruction, overlap and rate accounting."""

import pytest

from repro.obs import EventTracer, TraceQuery


def build_query():
    tracer = EventTracer()
    tracer.begin("step", "step", ts=0.0, step=0)
    tracer.begin("layer", "step", ts=0.5, layer=0)
    tracer.instant("protection-fault", "fault", ts=0.75, track="faults", faults=3)
    tracer.end("layer", "step", ts=1.0)
    tracer.end("step", "step", ts=2.0)
    tracer.complete(
        "xfer", "channel", ts=0.2, dur=0.3, track="promote", nbytes=1000
    )
    tracer.complete(
        "xfer", "channel", ts=0.5, dur=0.5, track="promote", nbytes=2000
    )
    tracer.instant("case3", "prefetch", ts=1.5, track="prefetch", tensor="w0")
    return TraceQuery(tracer.events)


class TestFilter:
    def test_by_category_and_name(self):
        query = build_query()
        assert query.filter(cat="channel").count() == 2
        assert query.filter(cat="step", name="layer").count() == 2

    def test_by_tensor_arg(self):
        query = build_query()
        assert query.filter(tensor="w0").count() == 1
        assert query.filter(tensor="nope").count() == 0

    def test_by_predicate(self):
        query = build_query()
        big = query.filter(predicate=lambda e: e.args.get("nbytes", 0) > 1500)
        assert big.count() == 1


class TestSpans:
    def test_begin_end_pairs_nest_lifo(self):
        spans = build_query().spans(cat="step")
        assert [(s.name, s.start, s.end) for s in spans] == [
            ("step", 0.0, 2.0),
            ("layer", 0.5, 1.0),
        ]

    def test_end_args_merge_over_begin_args(self):
        tracer = EventTracer()
        tracer.begin("step", "step", ts=0.0, step=3, phase="warm")
        tracer.end("step", "step", ts=1.0, phase="done")
        (span,) = TraceQuery(tracer.events).spans()
        assert span.args == {"step": 3, "phase": "done"}

    def test_unclosed_begin_invents_no_span(self):
        tracer = EventTracer()
        tracer.begin("step", "step", ts=0.0)
        assert TraceQuery(tracer.events).spans() == []

    def test_same_timestamp_begin_end_yields_zero_duration_span(self):
        # Regression audit: a B/E pair at the same timestamp must still
        # close into a (zero-duration) span rather than dangle or crash.
        tracer = EventTracer()
        tracer.begin("flash", "step", ts=1.0)
        tracer.end("flash", "step", ts=1.0)
        (span,) = TraceQuery(tracer.events).spans()
        assert (span.start, span.end, span.duration) == (1.0, 1.0, 0.0)

    def test_total_span_time(self):
        query = build_query()
        assert query.total_span_time(cat="channel") == pytest.approx(0.8)


class TestOverlap:
    def test_sequential_spans_do_not_overlap(self):
        assert build_query().overlap_time("promote", cat="channel") == 0.0

    def test_concurrent_spans_report_shared_time(self):
        tracer = EventTracer()
        tracer.complete("xfer", "channel", ts=0.0, dur=1.0, track="t")
        tracer.complete("xfer", "channel", ts=0.6, dur=1.0, track="t")
        query = TraceQuery(tracer.events)
        assert query.overlap_time("t") == pytest.approx(0.4)

    def test_zero_duration_span_contributes_no_overlap(self):
        # Regression audit: a dur=0 span inside a busy one adds an end
        # marker at the same timestamp as its start; the sweep must not
        # count negative or phantom overlap from the tie.
        tracer = EventTracer()
        tracer.complete("xfer", "channel", ts=0.0, dur=1.0, track="t")
        tracer.complete("blip", "channel", ts=0.5, dur=0.0, track="t")
        query = TraceQuery(tracer.events)
        assert query.overlap_time("t") == 0.0


class TestAggregates:
    def test_sum_arg_skips_bools_and_missing(self):
        tracer = EventTracer()
        tracer.instant("a", "chaos", ts=0.0, amount=2, urgent=True)
        tracer.instant("b", "chaos", ts=0.0, amount=3)
        tracer.instant("c", "chaos", ts=0.0)
        assert TraceQuery(tracer.events).sum_arg("amount") == 5
        assert TraceQuery(tracer.events).sum_arg("urgent") == 0.0

    def test_categories_and_tracks(self):
        query = build_query()
        assert query.categories() == {
            "step": 4,
            "fault": 1,
            "channel": 2,
            "prefetch": 1,
        }
        assert query.tracks() == ["main", "faults", "promote", "prefetch"]

    def test_span_rate_series_conserves_bytes(self):
        query = build_query()
        series = query.span_rate_series(0.25, cat="channel")
        total = sum(rate * 0.25 for _, rate in series)
        assert total == pytest.approx(3000.0)

    def test_span_rate_series_rejects_bad_bin(self):
        with pytest.raises(ValueError):
            build_query().span_rate_series(0.0)
