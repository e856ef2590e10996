"""Tensor-level insight: collector invariants, artifact, join, HTML."""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnn.alloc import RunShare, TensorMapping
from repro.dnn.ops import TensorAccess
from repro.dnn.tensor import Tensor, TensorKind
from repro.harness.report import format_insight
from repro.harness.runner import run_policy
from repro.mem.devices import DeviceKind
from repro.mem.page import PageTableEntry
from repro.obs import (
    INSIGHT_SCHEMA,
    InsightCollector,
    insight_json,
    join_stall_attribution,
    render_insight_html,
    validate_insight,
    write_insight,
    write_insight_html,
)


def collected_run(policy="sentinel", model="dcgan", **kwargs):
    collector = InsightCollector()
    metrics = run_policy(policy, model=model, insight=collector, **kwargs)
    return collector, metrics


@pytest.fixture(scope="module")
def dcgan_report():
    collector, _ = collected_run()
    return collector.report(meta={"model": "dcgan", "policy": "sentinel"})


class TestCollectorLifecycle:
    def test_report_before_finalize_raises(self):
        collector = InsightCollector()
        with pytest.raises(ValueError, match="finalize"):
            collector.report()
        with pytest.raises(ValueError, match="finalize"):
            collector.summary()

    def test_finalize_is_idempotent(self):
        collector, _ = collected_run()
        first = collector.report()
        collector.finalize(1e9)  # second call must be a no-op
        assert collector.report() == first

    def test_bind_rejects_second_machine(self):
        collector, _ = collected_run()
        with pytest.raises(ValueError, match="already bound"):
            collector.bind(object())

    def test_summary_keys_and_consistency(self):
        collector, _ = collected_run()
        summary = collector.summary()
        report = collector.report()
        assert set(summary) == {
            "insight.tensor_episodes",
            "insight.pingpong_events",
            "insight.pingpong_tensors",
            "insight.wasted_prefetch_bytes",
            "insight.migration_events",
        }
        assert summary["insight.tensor_episodes"] == len(report["tensors"])
        assert summary["insight.migration_events"] == len(report["migrations"])
        assert summary["insight.pingpong_events"] == sum(
            row["pingpong"] for row in report["tensors"]
        )

    def test_run_metrics_extras_carry_summary(self):
        collector = InsightCollector()
        metrics = run_policy("sentinel", model="dcgan", insight=collector)
        assert metrics.extras["insight.tensor_episodes"] > 0
        assert (
            metrics.extras["insight.migration_events"]
            == collector.summary()["insight.migration_events"]
        )


class TestArtifact:
    def test_validates_and_has_schema(self, dcgan_report):
        assert dcgan_report["schema"] == INSIGHT_SCHEMA
        assert validate_insight(dcgan_report) == len(dcgan_report["tensors"])
        assert dcgan_report["meta"] == {"model": "dcgan", "policy": "sentinel"}

    def test_residency_segments_tile_each_lifetime(self, dcgan_report):
        for row in dcgan_report["tensors"]:
            segments = row["residency"]
            end = row["free"] if row["free"] is not None else segments[-1][1]
            tiled = sum(t1 - t0 for t0, t1, _ in segments)
            assert tiled == pytest.approx(end - row["alloc"], abs=1e-12)

    def test_migration_totals_balance_tensor_attribution(self, dcgan_report):
        totals = dcgan_report["totals"]
        for kind in ("promote", "demote"):
            key = f"{kind}_bytes"
            if key not in totals:
                continue
            attributed = totals[f"{kind}_attributed"]
            unattributed = totals[f"{kind}_unattributed"]
            assert attributed + unattributed == pytest.approx(totals[key])
            assert attributed >= 0.0 and unattributed >= -1e-6

    def test_thrash_score_matches_definition(self, dcgan_report):
        for row in dcgan_report["tensors"]:
            expected = row["migrated_bytes"] / max(1, row["bytes_touched"])
            assert row["thrash"] == pytest.approx(expected)

    def test_canonical_json_is_byte_stable(self):
        a, _ = collected_run()
        b, _ = collected_run()
        meta = {"model": "dcgan", "policy": "sentinel"}
        assert insight_json(a.report(meta=meta)) == insight_json(b.report(meta=meta))

    def test_write_insight_round_trips(self, dcgan_report, tmp_path):
        path = tmp_path / "insight.json"
        write_insight(dcgan_report, str(path))
        loaded = json.loads(path.read_text())
        assert validate_insight(loaded) == len(dcgan_report["tensors"])
        assert insight_json(loaded) == insight_json(
            json.loads(insight_json(dcgan_report))
        )

    def test_validate_rejects_bad_artifacts(self, dcgan_report):
        with pytest.raises(ValueError, match="JSON object"):
            validate_insight([])
        with pytest.raises(ValueError, match="schema"):
            validate_insight({"schema": "bogus"})
        broken = json.loads(insight_json(dcgan_report))
        del broken["occupancy"]
        with pytest.raises(ValueError, match="occupancy"):
            validate_insight(broken)
        gapped = json.loads(insight_json(dcgan_report))
        victim = next(
            row for row in gapped["tensors"] if len(row["residency"]) > 1
        )
        victim["residency"][1][0] += 1.0
        with pytest.raises(ValueError, match="gap"):
            validate_insight(gapped)


class TestPingPong:
    def test_flagged_entries_are_promote_demote_promote(self):
        collector, _ = collected_run()
        report = collector.report()
        for row in report["tensors"]:
            flagged = [e for e in row["lineage"] if e.get("pingpong")]
            if row["pingpong"]:
                kinds = {e["kind"] for e in flagged}
                assert kinds <= {"promote", "demote"}
                assert len(flagged) >= 3


class TestStallJoin:
    def test_join_distributes_proportionally(self):
        class Step:
            def __init__(self, step, start, end, migration_stall):
                self.step = step
                self.start = start
                self.end = end
                self.migration_stall = migration_stall

        class Attribution:
            steps = (Step(0, 0.0, 10.0, 3.0), Step(1, 10.0, 20.0, 5.0))

        report = {
            "tensors": [
                {
                    "lineage": [{"t": 1.0, "bytes": 100.0}],
                    "stall": 0.0,
                },
                {
                    "lineage": [{"t": 2.0, "bytes": 300.0}],
                    "stall": 0.0,
                },
            ],
            "totals": {},
        }
        join_stall_attribution(report, Attribution())
        # Step 0's 3.0s split 1:3; step 1's 5.0s has no in-step migrations.
        assert report["tensors"][0]["stall"] == pytest.approx(0.75)
        assert report["tensors"][1]["stall"] == pytest.approx(2.25)
        assert report["totals"]["stall_unattributed"] == pytest.approx(5.0)

    def test_join_on_real_run_conserves_stall(self):
        from repro.obs import EventTracer, attribute

        tracer = EventTracer(capacity=1 << 16)
        collector = InsightCollector()
        run_policy("sentinel", model="dcgan", tracer=tracer, insight=collector)
        report = collector.report()
        attribution = attribute(tracer.events, dropped=tracer.dropped)
        join_stall_attribution(report, attribution)
        total_stall = sum(s.migration_stall for s in attribution.steps)
        attributed = sum(row["stall"] for row in report["tensors"])
        assert attributed + report["totals"]["stall_unattributed"] == (
            pytest.approx(total_stall, abs=1e-9)
        )


class TestTextAndHtml:
    def test_format_insight_renders_headline(self, dcgan_report):
        text = format_insight(dcgan_report, top=5)
        assert "tensor episodes" in text
        assert "top 5 tensors by migrated bytes" in text
        assert "ping-pong events" in text

    def test_html_is_self_contained(self, dcgan_report):
        html = render_insight_html(dcgan_report)
        assert html.lower().startswith("<!doctype html>")
        lowered = html.lower()
        for marker in ("http://", "https://", "<link", "src="):
            assert marker not in lowered
        assert "<svg" in html and "<style>" in html

    def test_html_embeds_the_canonical_artifact(self, dcgan_report):
        html = render_insight_html(dcgan_report)
        start = html.index('id="insight-data">') + len('id="insight-data">')
        end = html.index("</script>", start)
        embedded = json.loads(html[start:end])
        assert validate_insight(embedded) == len(dcgan_report["tensors"])

    def test_html_is_deterministic(self, dcgan_report):
        assert render_insight_html(dcgan_report) == render_insight_html(
            dcgan_report
        )

    def test_write_insight_html(self, dcgan_report, tmp_path):
        path = tmp_path / "report.html"
        write_insight_html(dcgan_report, str(path), top=3)
        content = path.read_text()
        assert INSIGHT_SCHEMA in content


# ------------------------------------------------------------ index exactness


class LinearSpans:
    """The reference: every live span in creation order, each range
    scanned against all of them."""

    def __init__(self):
        self.spans = []

    def add(self, span):
        self.spans.append(span)

    def remove(self, span):
        self.spans = [kept for kept in self.spans if kept is not span]

    def overlapping(self, lo, hi):
        return [span for span in self.spans if span.lo < hi and span.hi > lo]


#: Pages the synthetic runs live in: few enough that extents nest and
#: partly overlap often.
PAGES = 48

extents = st.tuples(st.integers(0, PAGES - 1), st.integers(1, 24)).map(
    lambda pair: (pair[0], min(PAGES, pair[0] + pair[1]))
)
operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("alloc"),
            st.integers(0, 5),
            st.lists(
                st.tuples(extents, st.integers(1, 10**6), st.booleans()),
                min_size=1,
                max_size=3,
            ),
        ),
        st.tuples(st.just("free"), st.integers(0, 5)),
        st.tuples(st.just("access"), st.integers(0, 5), st.integers(1, 4096)),
        st.tuples(
            st.just("migrate"),
            st.sampled_from(["promote", "demote"]),
            st.lists(extents, min_size=1, max_size=3),
            st.sampled_from([0.0, 0.5, 2.0]),
            st.sampled_from([None, "prefetch", "urgent-demand"]),
        ),
        st.tuples(st.just("instant"), st.sampled_from(["discard", "materialize"]), extents),
        st.tuples(st.just("tick"), st.sampled_from([0.0, 0.25, 1.0])),
    ),
    max_size=40,
)


def _run(lo, hi, fast=False):
    return PageTableEntry(lo, hi - lo, DeviceKind.FAST if fast else DeviceKind.SLOW)


def _drive(collector, ops, check):
    scope = collector.scope("main")
    tensors = {}
    mappings = {}
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "alloc":
            _, tid, shares = op
            if tid in mappings:
                continue
            mapping = TensorMapping(
                tensors.setdefault(
                    tid, Tensor(tid, f"t{tid}", 10**6 * 3, TensorKind.ACTIVATION)
                ),
                [RunShare(_run(lo, hi, fast), nbytes) for (lo, hi), nbytes, fast in shares],
            )
            mappings[tid] = mapping
            scope.on_tensor_allocated(mapping.tensor, mapping, now)
        elif kind == "free":
            mapping = mappings.pop(op[1], None)
            if mapping is not None:
                scope.on_tensor_freed(mapping.tensor, mapping, now)
        elif kind == "access":
            mapping = mappings.get(op[1])
            if mapping is not None:
                access = TensorAccess(mapping.tensor, op[2], False)
                scope.record(0, None, None, access, None, now)
        elif kind == "migrate":
            _, direction, ranges, delay, tag = op
            transfer = SimpleNamespace(start=now, finish=now + delay)
            runs = [_run(lo, hi) for lo, hi in ranges]
            collector.on_migration(direction, runs, transfer, 4096, tag, False, now)
        elif kind == "instant":
            _, flip, (lo, hi) = op
            collector.on_instant_flip(flip, _run(lo, hi), (hi - lo) * 4096, now)
        else:
            now += op[1]
        check(collector)
    collector.finalize(now + 10.0)
    check(collector)


def _bits(value):
    """A float as hex, so equality is bit for bit; an int as itself (a
    promotion that fills a tensor clamps to its integer ``nbytes``)."""
    return value.hex() if isinstance(value, float) else value


def _observed(collector):
    """Every state's fast bytes and lineage, and every event's attributed
    bytes, compared bit for bit."""
    states = list(collector._live.values()) + collector._done
    return (
        [
            (s.scope, s.tid, s.episode, _bits(s.fast_bytes), s.lineage, s.free)
            for s in states
        ],
        [(event["kind"], _bits(event["attributed"])) for event in collector._events],
    )


class TestSpanIndexExactness:
    @settings(max_examples=300, deadline=None)
    @given(ops=operations)
    def test_index_matches_a_linear_scan(self, ops):
        indexed = []
        _drive(InsightCollector(), ops, lambda c: indexed.append(_observed(c)))
        reference = InsightCollector()
        reference._spans = LinearSpans()
        scanned = []
        _drive(reference, ops, lambda c: scanned.append(_observed(c)))
        assert indexed == scanned

    def test_freed_tensor_keeps_no_span_in_the_index(self):
        collector = InsightCollector()
        ops = [
            ("alloc", 0, [((0, 40), 4096 * 40, False)]),
            ("alloc", 1, [((0, 40), 4096, False), ((2, 3), 100, True)]),
            ("migrate", "promote", [(0, 40)], 1.0, "prefetch"),
            ("free", 0),
            ("free", 1),
            ("tick", 1.0),
        ]
        _drive(collector, ops, lambda c: None)
        assert collector._spans.overlapping(0, PAGES) == []
        rows = collector.report()["tensors"]
        # The promote landed after both frees: nothing moved for anyone.
        assert [row["lineage"] for row in rows] == [[], []]
        assert collector.report()["totals"]["promote_unattributed"] == 40 * 4096

    def test_heat_adds_up_steps_that_come_back(self):
        collector = InsightCollector()
        scope = collector.scope("main")
        tensor = Tensor(0, "w", 8192, TensorKind.WEIGHT, preallocated=True)
        mapping = TensorMapping(tensor, [RunShare(_run(0, 2), 8192)])
        scope.on_tensor_allocated(tensor, mapping, 0.0)
        for step, nbytes in ((1, 100), (0, 10), (1, 1000), (1, 1)):
            scope.record(step, None, None, TensorAccess(tensor, nbytes, False), None, 0.0)
        collector.finalize(1.0)
        (row,) = collector.report()["tensors"]
        assert row["heat"] == {"0": [1, 10], "1": [3, 1101]}
        assert (row["accesses"], row["bytes_touched"]) == (4, 1111)
