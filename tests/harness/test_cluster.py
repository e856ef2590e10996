"""Multi-workload co-scheduling: contention, fairness, determinism.

The cluster harness's claims, each pinned here:

* co-scheduled workloads actually contend — at *matched* fast capacity the
  sum of steady step times across tenants exceeds the sum of the same
  workloads run alone, and the shared channels show nonzero queueing delay
  (an isolated run never queues behind itself);
* the run is deterministic — same specs, same machine config, same trace
  digest, including under chaos;
* spec and argument validation fails fast with actionable messages.
"""

import pytest

from repro.chaos import ChaosConfig, FaultInjector
from repro.harness.cluster import (
    DEFAULT_CLUSTER_PRESSURE,
    ClusterReport,
    WorkloadSpec,
    run_concurrent,
)
from repro.harness.runner import run_policy
from repro.mem.machine import Machine
from repro.mem.platforms import OPTANE_HM
from repro.models.zoo import build_model
from repro.obs import EventTracer, MetricsRegistry, canonical_digest

MODELS = ("dcgan", "lstm")
POLICY = "ial"


def matched_capacity(models=MODELS, fraction=0.2):
    combined = sum(build_model(m).peak_memory_bytes() for m in models)
    return max(OPTANE_HM.page_size, int(combined * fraction))


def cluster_specs(models=MODELS, policy=POLICY, steps=4):
    return [
        WorkloadSpec(name=f"{model}-{i}", model=model, policy=policy, steps=steps)
        for i, model in enumerate(models)
    ]


class TestContention:
    def test_co_scheduling_is_slower_than_isolation_at_matched_capacity(self):
        # The acceptance criterion of the engine refactor: same fast-tier
        # budget, the only difference is sharing the machine.
        cap = matched_capacity()
        iso_sum = sum(
            run_policy(POLICY, model=m, fast_capacity=cap).step_time
            for m in MODELS
        )
        report = run_concurrent(cluster_specs(), fast_capacity=cap)
        cluster_sum = sum(w.steady_step_time for w in report.workloads)
        assert cluster_sum > iso_sum

    def test_shared_channels_show_queueing_delay(self):
        report = run_concurrent(cluster_specs(), fast_capacity=matched_capacity())
        assert max(report.channel_queue_delay.values()) > 0.0
        assert all(d >= 0.0 for d in report.channel_queue_delay.values())
        assert set(report.channel_busy) == {"promote", "demote", "demand-promote"}

    def test_single_workload_degenerates_cleanly(self):
        # One tenant through the cluster path: no co-tenant, so no queueing
        # beyond what the workload inflicts on itself.
        spec = cluster_specs(models=("dcgan",))[0]
        report = run_concurrent([spec], fast_fraction=0.2)
        assert report.workloads[0].steps == 4
        assert report.makespan > 0
        assert report.fairness == pytest.approx(1.0)

    def test_report_aggregates(self):
        report = run_concurrent(cluster_specs(), fast_fraction=0.2)
        assert isinstance(report, ClusterReport)
        assert 0.0 < report.fairness <= 1.0
        assert report.aggregate_steps_per_second > 0
        assert report.promoted_bytes + report.demoted_bytes > 0
        for workload in report.workloads:
            assert workload.steps == 4
            assert workload.total_time > 0
            assert workload.mean_step_time > 0
        assert report.workload("dcgan-0").policy == POLICY
        with pytest.raises(KeyError):
            report.workload("nope")

    def test_sentinel_tenants_run_their_full_phase_schedule(self):
        report = run_concurrent(
            cluster_specs(policy="sentinel", steps=2), fast_fraction=0.2
        )
        for workload in report.workloads:
            # 2 steady + warmup (2) + 1 profiling step
            assert workload.steps == 5


class TestDeterminism:
    def run_traced(self, chaos_seed=None):
        injector = None
        if chaos_seed is not None:
            injector = FaultInjector(ChaosConfig.uniform(0.2, seed=chaos_seed))
        tracer = EventTracer()
        machine = Machine.for_platform(
            OPTANE_HM.with_fast_capacity(matched_capacity()),
            injector=injector,
            tracer=tracer,
            pressure=DEFAULT_CLUSTER_PRESSURE,
        )
        report = run_concurrent(cluster_specs(), machine=machine, tracer=tracer)
        return report, canonical_digest(tracer.events)

    def test_same_specs_same_trace_digest(self):
        first_report, first_digest = self.run_traced()
        second_report, second_digest = self.run_traced()
        assert first_digest == second_digest
        assert first_report.makespan == second_report.makespan
        assert [w.steady_step_time for w in first_report.workloads] == [
            w.steady_step_time for w in second_report.workloads
        ]

    def test_deterministic_under_chaos(self):
        _, first = self.run_traced(chaos_seed=11)
        _, second = self.run_traced(chaos_seed=11)
        assert first == second

    def test_chaos_seed_changes_the_run(self):
        _, clean = self.run_traced()
        _, chaotic = self.run_traced(chaos_seed=11)
        assert clean != chaotic

    def test_chaos_determinism_holds_across_three_runs(self):
        digests = {self.run_traced(chaos_seed=23)[1] for _ in range(3)}
        assert len(digests) == 1

    def test_chaos_trace_tracks_stay_well_formed(self):
        """Under chaos each workload's track still closes every span it
        opens, in nesting order — chaos perturbs timing, not structure."""
        from repro.obs.query import TraceQuery

        injector = FaultInjector(ChaosConfig.uniform(0.2, seed=11))
        tracer = EventTracer()
        machine = Machine.for_platform(
            OPTANE_HM.with_fast_capacity(matched_capacity()),
            injector=injector,
            tracer=tracer,
            pressure=DEFAULT_CLUSTER_PRESSURE,
        )
        run_concurrent(cluster_specs(), machine=machine, tracer=tracer)
        query = TraceQuery(tracer.events)
        for spec in cluster_specs():
            events = [e for e in tracer.events if e.track == spec.name]
            assert events, spec.name
            begins = sum(1 for e in events if e.ph == "B")
            ends = sum(1 for e in events if e.ph == "E")
            assert begins == ends, spec.name
            step_spans = [
                s
                for s in query.spans(cat="step")
                if s.track == spec.name and s.name == "step"
            ]
            # Every configured step closed, despite injected faults.
            assert len(step_spans) == 4
            assert all(s.end >= s.start for s in step_spans)

    def test_workload_tracks_are_separated_in_the_trace(self):
        tracer = EventTracer()
        run_concurrent(cluster_specs(), fast_fraction=0.2, tracer=tracer)
        tracks = {e.track for e in tracer.events if e.cat == "step"}
        assert {"dcgan-0", "lstm-1"} <= tracks
        cluster_events = [e for e in tracer.events if e.cat == "cluster"]
        assert len(cluster_events) == 8  # one workload-step instant per step


class TestValidation:
    def test_spec_needs_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            WorkloadSpec(name="w")
        with pytest.raises(ValueError, match="exactly one"):
            WorkloadSpec(name="w", model="dcgan", graph=build_model("dcgan"))

    def test_spec_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError, match="positive"):
            WorkloadSpec(name="w", model="dcgan", steps=0)

    def test_duplicate_names_rejected(self):
        specs = [
            WorkloadSpec(name="same", model="dcgan"),
            WorkloadSpec(name="same", model="lstm"),
        ]
        with pytest.raises(ValueError, match="unique"):
            run_concurrent(specs)

    def test_duplicate_names_are_listed_in_the_error(self):
        specs = [
            WorkloadSpec(name="twin", model="dcgan"),
            WorkloadSpec(name="twin", model="lstm"),
            WorkloadSpec(name="solo", model="dcgan"),
        ]
        with pytest.raises(ValueError, match="'twin'"):
            run_concurrent(specs)

    def test_steps_mutated_after_construction_still_rejected(self):
        spec = WorkloadSpec(name="w", model="dcgan")
        spec.steps = 0
        with pytest.raises(ValueError, match="steps must be positive"):
            run_concurrent([spec])

    def test_empty_graph_rejected(self):
        # GraphBuilder.finish() refuses empty graphs, so a hand-built Graph
        # is the only way one reaches the harness — it must still fail with
        # the harness's own actionable message, not hang the engine.
        from repro.dnn.graph import Graph

        empty = Graph(name="empty", batch_size=1, layers=[], tensors=[])
        with pytest.raises(ValueError, match="no layers"):
            run_concurrent([WorkloadSpec(name="w", graph=empty)])

    def test_empty_workload_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            run_concurrent([])

    def test_tracer_with_untraced_machine_rejected(self):
        # Any observer that is not the explicit machine's own would stay
        # empty: an untraced machine, another tracer, another registry.
        traced = Machine.for_platform(OPTANE_HM, tracer=EventTracer())
        cases = [
            (Machine.for_platform(OPTANE_HM), {"tracer": EventTracer()}, "tracer"),
            (traced, {"tracer": EventTracer()}, "tracer"),
            (traced, {"metrics": MetricsRegistry()}, "metrics"),
        ]
        for machine, observers, match in cases:
            with pytest.raises(ValueError, match=match):
                run_concurrent(cluster_specs(), machine=machine, **observers)

    def test_bad_fast_fraction_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            run_concurrent(cluster_specs(), fast_fraction=0.0)


class TestConcurrentCLI:
    def test_concurrent_command_prints_report(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "concurrent",
                    "dcgan",
                    "lstm",
                    "--policies",
                    "ial",
                    "--steps",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "workloads co-scheduled" in out
        assert "dcgan-0" in out and "lstm-1" in out
        assert "makespan" in out and "fairness" in out
        assert "mean channel queueing delay" in out

    def test_concurrent_rejects_non_positive_fast_fraction(self):
        from repro.cli import main

        for bad in ("0", "-0.5", "nan"):
            with pytest.raises(ValueError, match="fast fraction must be positive"):
                main(["concurrent", "dcgan", "lstm", f"--fast-fraction={bad}"])

    def test_concurrent_isolated_flag_adds_comparison(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "concurrent",
                    "dcgan",
                    "lstm",
                    "--policies",
                    "ial",
                    "--steps",
                    "2",
                    "--isolated",
                ]
            )
            == 0
        )
        assert "vs isolated" in capsys.readouterr().out

    def test_concurrent_trace_export_validates(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.obs import validate_chrome

        path = tmp_path / "cluster.json"
        assert (
            main(
                [
                    "concurrent",
                    "dcgan",
                    "lstm",
                    "--policies",
                    "ial",
                    "--steps",
                    "2",
                    "--trace",
                    str(path),
                ]
            )
            == 0
        )
        assert "trace:" in capsys.readouterr().out
        assert validate_chrome(json.loads(path.read_text())) > 0

    def test_policy_count_mismatch_is_a_usage_error(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "concurrent",
                    "dcgan",
                    "lstm",
                    "--policies",
                    "ial",
                    "sentinel",
                    "first-touch",
                ]
            )
            == 2
        )
        assert "one per model" in capsys.readouterr().err
