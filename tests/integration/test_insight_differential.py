"""Differential checks for the tensor-insight layer.

Two contracts, both across the model zoo:

* **Zero overhead when disabled** — attaching an insight collector must
  not perturb the simulation by a single byte: the golden trace digest of
  a run with a collector equals the digest without one.  Insight
  *observes* prices, it never sets them.
* **Internal consistency when enabled** — residency segments tile each
  tensor's lifetime exactly, the occupancy identity
  ``hot + warm + cold + other == occupancy`` holds at every sample, byte
  attribution balances against migration totals, and every ping-pong
  flagged lineage entry reconciles with a migration-category trace event
  at the same transfer-start timestamp.

Each case is also an ``insight`` cell of the golden corpus; the
``collected`` fixture asserts its recorded digests, so the report bytes are
pinned without running the case twice.
"""

import pytest

from repro.harness.runner import run_policy
from repro.obs import (
    EventTracer,
    InsightCollector,
    TraceQuery,
    canonical_digest,
    validate_insight,
)
from tests.golden.corpus import INSIGHT_CASES, Cell, digests, load

#: (policy, model, fast_fraction) spanning policy families and the zoo.
CASES = list(INSIGHT_CASES)


def traced_run(policy, model, fraction, insight):
    tracer = EventTracer()
    collector = InsightCollector() if insight else None
    metrics = run_policy(
        policy,
        model=model,
        fast_fraction=fraction,
        tracer=tracer,
        insight=collector,
    )
    return metrics, tracer, collector


@pytest.fixture(scope="module")
def collected():
    """One insight-enabled traced run per case, checked against its cell."""
    recorded = load()
    out = {}
    for policy, model, fraction in CASES:
        run = traced_run(policy, model, fraction, insight=True)
        cell = Cell(policy, model, fraction, variant="insight")
        assert digests(*run) == recorded[cell.key], cell.key
        out[(policy, model, fraction)] = run
    return out


class TestDisabledByteIdentity:
    @pytest.mark.parametrize("policy,model,fraction", CASES)
    def test_trace_digest_unchanged_by_collector(
        self, collected, policy, model, fraction
    ):
        bare_metrics, bare_tracer, _ = traced_run(
            policy, model, fraction, insight=False
        )
        metrics, tracer, _ = collected[(policy, model, fraction)]
        assert canonical_digest(tracer.events) == canonical_digest(
            bare_tracer.events
        )
        # Metrics agree too, modulo the insight.* summary extras.
        stripped = {
            key: value
            for key, value in metrics.extras.items()
            if not key.startswith("insight.")
        }
        assert stripped == bare_metrics.extras
        assert metrics.step_time == bare_metrics.step_time


class TestEnabledConsistency:
    @pytest.mark.parametrize("policy,model,fraction", CASES)
    def test_artifact_validates(self, collected, policy, model, fraction):
        _, _, collector = collected[(policy, model, fraction)]
        report = collector.report()
        assert validate_insight(report) == len(report["tensors"])

    @pytest.mark.parametrize("policy,model,fraction", CASES)
    def test_residency_tiles_lifetime(self, collected, policy, model, fraction):
        _, _, collector = collected[(policy, model, fraction)]
        report = collector.report()
        for row in report["tensors"]:
            segments = row["residency"]
            assert segments[0][0] == row["alloc"]
            end = row["free"] if row["free"] is not None else report["finalized_at"]
            assert segments[-1][1] == end
            tiled = sum(t1 - t0 for t0, t1, _ in segments)
            assert tiled == pytest.approx(end - row["alloc"], abs=1e-12)

    @pytest.mark.parametrize("policy,model,fraction", CASES)
    def test_occupancy_identity_at_every_sample(
        self, collected, policy, model, fraction
    ):
        _, _, collector = collected[(policy, model, fraction)]
        report = collector.report()
        assert report["occupancy"], "no occupancy samples collected"
        for _, hot, warm, cold, other, occupancy in report["occupancy"]:
            assert hot >= 0 and warm >= 0 and cold >= 0
            assert hot + warm + cold + other == pytest.approx(
                occupancy, abs=1e-6
            )

    @pytest.mark.parametrize("policy,model,fraction", CASES)
    def test_attribution_balances_migration_totals(
        self, collected, policy, model, fraction
    ):
        _, _, collector = collected[(policy, model, fraction)]
        report = collector.report()
        totals = report["totals"]
        for kind in ("promote", "demote"):
            key = f"{kind}_bytes"
            if key not in totals:
                continue
            per_tensor = sum(
                entry["bytes"]
                for row in report["tensors"]
                for entry in row["lineage"]
                if entry["kind"] == kind
            )
            assert per_tensor == pytest.approx(totals[f"{kind}_attributed"])
            assert totals[f"{kind}_attributed"] + totals[
                f"{kind}_unattributed"
            ] == pytest.approx(totals[key])


class TestPingPongReconciliation:
    @pytest.mark.parametrize("policy,model,fraction", CASES)
    def test_lineage_reconciles_with_migration_trace(
        self, collected, policy, model, fraction
    ):
        _, tracer, collector = collected[(policy, model, fraction)]
        report = collector.report()
        query = TraceQuery(tracer.events)
        starts = {
            kind: {
                event.ts
                for event in query.filter(cat="migration", name=kind)
            }
            for kind in ("promote", "demote")
        }
        for row in report["tensors"]:
            for entry in row["lineage"]:
                if entry["kind"] not in starts:
                    continue  # discard/materialize have no X-span
                assert entry["start"] in starts[entry["kind"]], (
                    f"{row['name']}#{row['tid']}: lineage {entry['kind']} at "
                    f"start={entry['start']} has no matching trace event"
                )

    def test_some_case_actually_pingpongs(self, collected):
        # Guard against the detector silently never firing: at least one
        # zoo case must exhibit promote→demote→promote churn.
        total = sum(
            row["pingpong"]
            for _, _, collector in collected.values()
            for row in collector.report()["tensors"]
        )
        assert total > 0

    def test_flagged_count_matches_summary(self, collected):
        for _, _, collector in collected.values():
            report = collector.report()
            summary = collector.summary()
            assert summary["insight.pingpong_events"] == sum(
                row["pingpong"] for row in report["tensors"]
            )
