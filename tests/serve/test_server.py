"""Serving lifecycle: overload, retry, timeout, failure episodes, reports.

Scenario tests run tiny synthetic graphs (sub-millisecond simulated steps)
so the suite stays fast; the CLI smoke covers the zoo-model scale.
"""

import json

import pytest

from repro.chaos import Episode, EpisodeConfig, InvariantAuditor
from repro.cli import SERVE_SCENARIOS
from repro.dnn.graph import GraphBuilder
from repro.harness.report import format_serve
from repro.obs import EventTracer, canonical_digest
from repro.obs.query import TraceQuery
from repro.serve import (
    SERVE_MIX,
    JobTemplate,
    PoissonArrivals,
    ServeConfig,
    Server,
    TraceArrivals,
    serve,
)
from repro.serve.server import BACKOFF_BASE


def tiny_graph(weight_bytes=65536, act_bytes=65536):
    b = GraphBuilder("tiny", batch_size=1)
    w = b.weight("w", weight_bytes)
    with b.layer("l0"):
        out = b.tensor("out", act_bytes)
        b.op("mm", flops=1e6, reads=[w], writes=[out])
    return b.finish()


def template(name="t", steps=1, slo=10.0, weight=1.0):
    return JobTemplate(
        name=name,
        graph=tiny_graph(),
        policy="ial",
        steps=steps,
        slo=slo,
        weight=weight,
    )


def burst(count, templates=None, times=None):
    """TraceArrivals: ``count`` jobs of one template, default all at t=0."""
    templates = templates if templates is not None else (template(),)
    name = templates[0].name
    times = times if times is not None else [0.0] * count
    return TraceArrivals(
        trace=tuple((t, name) for t in times), templates=templates
    )


def job_duration():
    """Simulated seconds one tiny job takes alone (measured, not assumed)."""
    report = serve(burst(1), ServeConfig(slots=1))
    assert report.completed == 1
    return report.makespan


def graph_fingerprint(graph):
    """What the simulator reads off a finished graph, by value: every
    tensor's size and lifetime and every op's accesses (``Graph.signature``
    covers only names)."""
    tensors = tuple(
        (t.tid, t.nbytes, t.alloc_layer, t.free_layer, sorted(t.layer_touches.items()))
        for t in graph.tensors
    )
    ops = tuple(
        tuple((a.tensor.tid, a.nbytes, a.is_write, a.passes) for a in op.accesses)
        for layer in graph.layers
        for op in layer.ops
    )
    return tensors, ops


class TestDeterminism:
    def _run(self, episodes=None):
        arrivals = PoissonArrivals(
            rate=200.0, horizon=0.05, templates=(template(),), seed=9
        )
        cfg = ServeConfig(
            seed=9, slots=2, admission="edf", queue_limit=3, episodes=episodes
        )
        tracer = EventTracer()
        server = Server(arrivals, cfg, tracer=tracer)
        return server.run(), tracer

    def test_steady_runs_are_byte_identical(self):
        r1, t1 = self._run()
        r2, t2 = self._run()
        assert r1.to_json() == r2.to_json()
        assert canonical_digest(t1.events) == canonical_digest(t2.events)

    def test_failure_runs_are_byte_identical(self):
        episodes = EpisodeConfig(
            seed=9, horizon=0.05, machine_mtbf=0.02, machine_mttr=0.005
        )
        r1, t1 = self._run(episodes)
        r2, t2 = self._run(episodes)
        assert r1.to_json() == r2.to_json()
        assert canonical_digest(t1.events) == canonical_digest(t2.events)


class TestOverload:
    def test_excess_load_is_shed_not_queued_unboundedly(self):
        cfg = ServeConfig(slots=1, queue_limit=3, max_attempts=1)
        report = serve(burst(10), cfg)
        assert report.counts["serve.shed"] > 0
        assert report.counts["serve.shed.queue-full"] > 0
        # 1 running + 3 queued is all the system accepts from a t=0 burst.
        assert report.completed <= 4
        assert report.completed + report.counts["serve.shed.permanent"] == 10

    def test_admitted_latency_stays_bounded(self):
        d = job_duration()
        cfg = ServeConfig(slots=1, queue_limit=3, max_attempts=1)
        report = serve(burst(10), cfg)
        # Worst admitted job waits behind the slot plus the full queue.
        assert report.p99 <= (cfg.queue_limit + 2) * d

    def test_every_job_is_accounted(self):
        cfg = ServeConfig(slots=1, queue_limit=2, max_attempts=1)
        report = serve(burst(8), cfg)
        states = [j["state"] for j in report.jobs]
        assert all(s in ("completed", "shed") for s in states)
        assert len(states) == 8


class TestRetryBackoff:
    def test_shed_jobs_retry_then_give_up(self):
        # Each job (~80 ms simulated) outlasts the longest first backoff
        # (1.5 * BACKOFF_BASE), so retries keep meeting a full queue.
        cfg = ServeConfig(slots=1, queue_limit=1, max_attempts=3)
        report = serve(burst(6, templates=(template(steps=20_000),)), cfg)
        assert report.counts["serve.retry"] > 0
        gave_up = [j for j in report.jobs if j["state"] == "shed"]
        assert gave_up
        assert all(j["attempts"] == 3 for j in gave_up)

    def test_backoff_lets_retries_land_after_drain(self):
        # The backoff outlives the head-of-line job: the retry arrives to a
        # drained queue and completes.
        assert BACKOFF_BASE * 0.5 > 2 * job_duration()
        cfg = ServeConfig(slots=1, queue_limit=1, max_attempts=4)
        report = serve(burst(3), cfg)
        assert report.counts["serve.retry"] > 0
        assert report.completed == 3


class TestTimeout:
    def test_timeout_interrupts_and_frees_memory(self):
        d = job_duration()
        arrivals = burst(1, templates=(template(steps=50),))
        cfg = ServeConfig(slots=1, timeout=2 * d)
        server = Server(arrivals, cfg)
        report = server.run()
        assert report.counts["serve.timeout"] == 1
        assert report.jobs[0]["state"] == "timed-out"
        assert report.completed == 0
        machine = server.machine
        assert machine.fast.used == 0 and machine.slow.used == 0
        assert len(machine.page_table) == 0
        assert InvariantAuditor(machine).audit() is None

    def test_no_timeout_by_default(self):
        report = serve(burst(2), ServeConfig(slots=1))
        assert report.completed == 2
        assert "serve.timeout" not in report.counts


class TestFailureEpisodes:
    def _outage(self, d, restart_budget=2):
        """One machine-offline window landing mid-first-job."""
        arrivals = burst(3, times=[0.0, 0.0, 0.0])
        episodes = (
            Episode("machine-offline", start=d * 0.5, duration=d * 0.4),
        )
        cfg = ServeConfig(
            slots=1,
            queue_limit=4,
            restart_budget=restart_budget,
            episodes=episodes,
        )
        server = Server(arrivals, cfg)
        return server.run(), server

    def test_interrupted_jobs_restart_and_complete(self):
        d = job_duration()
        report, server = self._outage(d)
        assert report.episodes == 1
        assert report.counts["serve.interrupted"] >= 1
        assert report.counts["serve.restart"] >= 1
        assert report.completed == 3
        machine = server.machine
        assert machine.online
        assert machine.fast.used == 0 and machine.slow.used == 0
        assert InvariantAuditor(machine).audit() is None

    def test_restart_resumes_from_checkpoint(self):
        # Multi-step job; the outage lands in the steady tail (the first
        # step carries the cold-start migrations, so it dominates), and the
        # restarted attempt must not re-run completed steady steps.
        arrivals = burst(1, templates=(template(steps=4),))
        d4 = serve(burst(1, templates=(template(steps=4),)),
                   ServeConfig(slots=1)).makespan
        episodes = (
            Episode("machine-offline", start=d4 * 0.9, duration=d4 * 0.05),
        )
        cfg = ServeConfig(slots=1, episodes=episodes)
        tracer = EventTracer()
        report = Server(arrivals, cfg, tracer=tracer).run()
        job = report.jobs[0]
        assert job["state"] == "completed"
        assert job["restarts"] == 1
        assert job["completed_steps"] == 4
        marks = TraceQuery(tracer.events).filter(cat="serve", track="serve")
        (restart,) = [e.args for e in marks if e.name == "restart"]
        assert restart["checkpoint"] >= 1
        redispatch = [e.args for e in marks if e.name == "dispatch"][-1]
        assert redispatch["remaining_steps"] == 4 - restart["checkpoint"]

    def test_exhausted_restart_budget_fails_permanently(self):
        d = job_duration()
        report, _ = self._outage(d, restart_budget=0)
        assert report.counts["serve.failed"] >= 1
        failed = [j for j in report.jobs if j["state"] == "failed"]
        assert failed and all(not j["slo_met"] for j in failed)


class TestEdf:
    def test_expires_jobs_whose_deadline_passed_in_queue(self):
        d = job_duration()
        hog = template(name="hog", steps=8, slo=100.0)
        tight = JobTemplate(
            name="tight", graph=tiny_graph(), policy="ial", slo=d, weight=1.0
        )
        arrivals = TraceArrivals(
            trace=((0.0, "hog"), (0.0, "tight")), templates=(hog, tight)
        )
        cfg = ServeConfig(slots=1, admission="edf", queue_limit=4)
        report = serve(arrivals, cfg)
        assert report.counts["serve.expired"] == 1
        states = {j["name"]: j["state"] for j in report.jobs}
        assert states["hog#0"] == "completed"
        assert states["tight#1"] == "expired"


#: Each lifecycle decision's ``serve`` trace instant and the report count
#: it bumps.
MARK_COUNTS = {
    "admit": "serve.admitted",
    "shed": "serve.shed",
    "retry": "serve.retry",
    "give-up": "serve.shed.permanent",
    "dispatch": "serve.dispatched",
    "complete": "serve.completed",
    "restart": "serve.restart",
    "fail": "serve.failed",
    "expire": "serve.expired",
    "timeout": "serve.timeout",
    "infeasible": "serve.infeasible",
}


class TestObservability:
    @pytest.mark.parametrize("scenario", ["overload", "failure"])
    def test_trace_instants_match_report_counts(self, scenario):
        """The trace and the report are the run's two records of its
        decisions; on the CLI's presets they agree name for name."""
        rate, horizon, episodes = SERVE_SCENARIOS[scenario]
        tracer = EventTracer()
        report = Server(
            PoissonArrivals(rate=rate, horizon=horizon, templates=SERVE_MIX, seed=7),
            ServeConfig(
                seed=7,
                slots=2,
                admission="edf",
                queue_limit=4,
                timeout=240.0,
                episodes=None
                if episodes is None
                else EpisodeConfig(seed=7, horizon=horizon, **episodes),
            ),
            fast_fraction=0.5,
            tracer=tracer,
        ).run()
        assert tracer.dropped == 0
        instants = [e for e in tracer.events if e.cat == "serve" and e.ph == "i"]
        assert {e.name for e in instants} <= set(MARK_COUNTS)
        for name, key in MARK_COUNTS.items():
            seen = sum(1 for e in instants if e.name == name)
            assert seen == report.counts.get(key, 0), name
        assert instants and report.counts["serve.admitted"] > 0

    def test_lifecycle_shows_up_in_trace(self):
        tracer = EventTracer()
        cfg = ServeConfig(slots=1, queue_limit=2, max_attempts=1)
        server = Server(burst(4), cfg, tracer=tracer)
        server.run()
        query = TraceQuery(tracer.events)
        serve_events = query.filter(cat="serve")
        names = {e.name for e in serve_events}
        assert {"admit", "dispatch", "complete", "shed"} <= names
        # Each dispatched attempt closes a job-attempt span on its own track.
        spans = query.spans(cat="serve")
        attempt_spans = [s for s in spans if s.name == "job-attempt"]
        # t=0 burst of 4: one dispatches instantly, two queue, one sheds.
        assert len(attempt_spans) == 3
        assert {s.track for s in attempt_spans} == {"t#0", "t#1", "t#2"}


class TestReport:
    def test_json_schema(self):
        report = serve(burst(3), ServeConfig(slots=2))
        payload = json.loads(report.to_json())
        assert payload["schema"] == "serve-report/v1"
        for key in (
            "seed",
            "makespan",
            "total_jobs",
            "completed",
            "slo_met",
            "slo_attainment",
            "goodput",
            "latency",
            "counts",
            "episodes",
            "jobs",
        ):
            assert key in payload, key
        assert set(payload["latency"]) == {"p50", "p95", "p99", "mean", "max"}
        assert payload["total_jobs"] == 3

    def test_percentiles_are_nearest_rank(self):
        from repro.serve.server import ServeReport

        report = ServeReport(
            seed=0, makespan=1.0, latencies=[0.1, 0.2, 0.3, 0.4]
        )
        assert report.p50 == 0.2
        assert report.p99 == 0.4
        assert report.mean_latency == pytest.approx(0.25)

    def test_format_serve_is_stable_text(self):
        report = serve(burst(2), ServeConfig(slots=1))
        text = format_serve(report)
        assert "SLO attainment" in text
        assert "serve.shed" in text  # zero counters still print
        assert format_serve(report) == text


class TestValidation:
    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError, match="slots"):
            ServeConfig(slots=0)
        with pytest.raises(ValueError, match="max_attempts"):
            ServeConfig(max_attempts=0)
        with pytest.raises(ValueError, match="timeout"):
            ServeConfig(timeout=0.0)
        with pytest.raises(ValueError, match="restart_budget"):
            ServeConfig(restart_budget=-1)

    def test_migration_admission_args_need_a_controller_name(self):
        with pytest.raises(ValueError, match="without a controller name"):
            Server(
                burst(1),
                ServeConfig(),
                migration_admission_args={"stall_target": 0.02},
            )


class TestUncorrectableErrors:
    """A UE past the recovery ladder fails the job, never the machine."""

    def _storm(self, recovery="none", restart_budget=0, seed=3, tracer=None):
        from repro.mem.ras import RASConfig

        ras = RASConfig(seed=seed, ue_rate=2.0, recovery=recovery)
        arrivals = burst(4, templates=(template(steps=4),))
        cfg = ServeConfig(slots=1, restart_budget=restart_budget)
        server = Server(arrivals, cfg, ras=ras, tracer=tracer)
        return server.run(), server

    def test_exhausted_ladder_fails_only_the_owning_job(self):
        report, server = self._storm()
        assert report.counts["serve.ue"] >= 1
        assert report.counts["serve.failed"] == report.counts["serve.ue"]
        # Blast radius: the machine survives and keeps serving — the other
        # jobs complete on it after the failure.
        assert server.machine.online
        assert report.completed >= 1
        assert report.completed + report.counts["serve.failed"] == 4
        # The departed jobs returned their capacity.
        machine = server.machine
        assert machine.fast.used == 0 and machine.slow.used == 0
        assert InvariantAuditor(machine).audit() is None

    def test_restart_budget_gives_ue_victims_another_attempt(self):
        report, server = self._storm(restart_budget=2)
        assert report.counts["serve.ue"] >= 1
        assert report.counts["serve.restart"] >= 1
        # Retired frames stay retired across the restart, but the retry
        # runs on healthy pages and completes.
        assert report.completed == 4
        assert server.machine.ras.retired_frames >= 1

    def test_remat_recovery_absorbs_the_same_storm(self):
        report, server = self._storm(recovery="remat")
        assert "serve.ue" not in report.counts
        assert report.completed == 4
        assert server.machine.ras.counts["ras.remat_events"] >= 1

    def test_ue_runs_are_byte_identical(self):
        r1, _ = self._storm()
        r2, _ = self._storm()
        assert r1.to_json() == r2.to_json()

    def test_ue_lifecycle_lands_in_trace(self):
        tracer = EventTracer()
        report, _ = self._storm(tracer=tracer)
        query = TraceQuery(tracer.events)
        fails = [e for e in query.filter(cat="serve") if e.name == "fail"]
        assert fails and all(
            e.args["reason"] == "ue-restart-budget-exhausted" for e in fails
        )
        assert query.filter(cat="ras").count() >= 1


class TestSharedGraph:
    def test_each_zoo_template_is_built_once_and_left_unchanged(self, monkeypatch):
        import repro.serve.arrivals as arrivals

        built = []

        def build_model(model, **kwargs):
            graph = zoo_build(model, **kwargs)
            built.append((model, graph, graph_fingerprint(graph)))
            return graph

        zoo_build = arrivals.build_model
        monkeypatch.setattr(arrivals, "build_model", build_model)
        mix = (
            JobTemplate(
                name="infer", model="mobilenet", policy="ial", steps=1, slo=15.0,
                weight=4.0,
            ),
            JobTemplate(name="train", model="dcgan", policy="ial", steps=2, slo=60.0),
        )
        report = serve(
            PoissonArrivals(rate=1.0, horizon=8.0, templates=mix, seed=7),
            ServeConfig(seed=7, slots=2, admission="edf", queue_limit=4),
            fast_fraction=0.5,
        )
        assert report.counts["serve.dispatched"] > len(mix)
        assert sorted(model for model, _, _ in built) == ["dcgan", "mobilenet"]
        for model, graph, at_build in built:
            assert graph_fingerprint(graph) == at_build, model


class TestInsight:
    def _run(self, count=6, insight=None, tracer=None, **cfg_kwargs):
        from repro.obs import InsightCollector

        collector = insight if insight is not None else InsightCollector()
        arrivals = burst(count, times=[0.01 * i for i in range(count)])
        server = Server(
            arrivals,
            ServeConfig(slots=2, **cfg_kwargs),
            tracer=tracer,
            insight=collector,
        )
        report = server.run()
        return server, report, collector

    def test_job_tids_are_stable_and_unique(self):
        server, _, _ = self._run()
        tids = server.job_tids()
        assert tids["serve"] == 0
        assert len(set(tids.values())) == len(tids)
        # Schedule order, not completion order.
        job_names = [a.job_name for a in server.schedule]
        assert [tids[name] for name in job_names] == list(
            range(1, len(job_names) + 1)
        )

    def test_collector_finalized_with_serve_section(self):
        _, report, collector = self._run()
        artifact = collector.report()
        assert report.completed > 0
        serve_section = artifact["serve"]
        assert serve_section["jobs"] == report.total_jobs
        ok = sum(w["ok"] for w in serve_section["windows"])
        assert ok == report.slo_met

    def test_every_job_scope_is_closed(self):
        _, _, collector = self._run()
        assert collector._live == {}
        artifact = collector.report()
        scopes = {row["scope"] for row in artifact["tensors"]}
        assert scopes  # per-job scopes, never "main"
        assert "main" not in scopes
        for row in artifact["tensors"]:
            assert row["free"] is not None

    def test_shed_and_expired_jobs_count_in_slo_windows(self):
        from repro.obs import InsightCollector

        collector = InsightCollector()
        # Simultaneous burst against a single slot and a queue bound of 1:
        # most jobs shed permanently without ever touching the machine.
        arrivals = burst(12, times=[0.0] * 12)
        server = Server(
            arrivals,
            ServeConfig(slots=1, queue_limit=1, max_attempts=1),
            insight=collector,
        )
        report = server.run()
        assert report.counts.get("serve.shed.permanent", 0) > 0
        serve_section = collector.report()["serve"]
        assert serve_section["jobs"] == report.total_jobs

    def test_reservoir_bounds_trace_retention(self):
        from repro.obs import InsightCollector
        from repro.obs.insight import RESERVOIR_SIZE

        tracer = EventTracer()
        collector = InsightCollector()
        server, report, _ = self._run(
            count=RESERVOIR_SIZE + 4, insight=collector, tracer=tracer
        )
        sampled = collector.report()["serve"]["sampled_jobs"]
        assert len(sampled) == RESERVOIR_SIZE
        retained = collector.retained_events(tracer.events)
        job_tracks = {
            event.track
            for event in retained
            if event.track in {a.job_name for a in server.schedule}
        }
        assert job_tracks <= set(sampled)
        # Machine-level tracks survive the filter untouched.
        serve_lane = [e for e in tracer.events if e.track == "serve"]
        assert [e for e in retained if e.track == "serve"] == serve_lane

    def test_insight_does_not_perturb_serve_report(self):
        arrivals = burst(4, times=[0.01 * i for i in range(4)])
        bare = Server(arrivals, ServeConfig(slots=2)).run()
        from repro.obs import InsightCollector

        arrivals2 = burst(4, times=[0.01 * i for i in range(4)])
        with_insight = Server(
            arrivals2, ServeConfig(slots=2), insight=InsightCollector()
        ).run()
        assert with_insight.to_json() == bare.to_json()
