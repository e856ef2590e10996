"""Multi-workload co-scheduling on one heterogeneous-memory machine.

The single-workload harness (:func:`repro.harness.runner.run_policy`) is
exact but solitary: one executor owns the clock, so nothing else can
compete for the machine.  This module co-schedules N training workloads on
*one* :class:`~repro.mem.machine.Machine` via the discrete-event engine:
every executor's step body runs as an engine process on a shared timeline,
so the workloads contend for the same promote/demote/demand channels
(FIFO queueing pushes each other's transfers back) and the same fast-tier
capacity (guarded by a pressure governor so co-tenants spill instead of
crashing).

Contention is emergent, not modelled: a transfer submitted while another
workload's copy occupies the channel simply starts later
(``start = max(now, next_free)``), which lengthens prefetch arrival times,
Case-3 waits, and demand stalls exactly the way a shared PCIe link or
migration thread would.

Known attribution artifacts of sharing one machine (documented, asserted
in tests, and the reason the cluster report carries machine-global
aggregates):

* per-step ``promoted_bytes``/``demoted_bytes`` in each workload's
  :class:`~repro.dnn.executor.StepResult` are deltas of machine-global
  counters, so traffic from a co-tenant active during the step is
  attributed to it too;
* two Sentinel instances profiling in overlapping steps poison PTEs
  machine-wide, so profiling-phase fault counts can include cross-tenant
  noise — stagger profiling (different ``warmup_steps``) when that
  matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.runtime import SentinelConfig
from repro.dnn.executor import Executor, StepResult
from repro.dnn.graph import Graph
from repro.harness.runner import (
    STEADY_STEPS,
    _sentinel_config,
    fast_capacity_for,
    make_policy,
    setup_steps,
)
from repro.mem.machine import Machine
from repro.mem.platforms import Platform
from repro.mem.pressure import PressureConfig
from repro.models.zoo import build_model
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import EventTracer

__all__ = ["WorkloadSpec", "WorkloadReport", "ClusterReport", "run_concurrent"]

#: Default governor for machines built by :func:`run_concurrent`: shared
#: capacity makes fast-tier exhaustion the normal operating point, so
#: co-tenants must spill to slow memory instead of raising DeviceFullError.
DEFAULT_CLUSTER_PRESSURE = PressureConfig.watermarks(low=0.85, high=0.95)

#: Sentinel marker for "caller did not pass pressure=".
_UNSET = object()


@dataclass
class WorkloadSpec:
    """One tenant of a concurrent run.

    Exactly one of ``model`` or ``graph`` must be given.  ``steps`` counts
    *steady* steps; Sentinel policies additionally run their warm-up and
    profiling steps first, mirroring the single-workload harness.
    """

    name: str
    model: Optional[str] = None
    graph: Optional[Graph] = None
    policy: str = "sentinel"
    batch_size: Optional[int] = None
    scale: str = "small"
    steps: int = STEADY_STEPS
    sentinel_config: Optional[SentinelConfig] = None

    def __post_init__(self) -> None:
        if (self.graph is None) == (self.model is None):
            raise ValueError(
                f"workload {self.name!r}: provide exactly one of model= or graph="
            )
        if self.steps <= 0:
            raise ValueError(
                f"workload {self.name!r}: steps must be positive, got {self.steps!r}"
            )

    def build_graph(self) -> Graph:
        if self.graph is not None:
            return self.graph
        return build_model(self.model, batch_size=self.batch_size, scale=self.scale)


@dataclass
class WorkloadReport:
    """Per-workload outcome of a concurrent run."""

    name: str
    policy: str
    results: List[StepResult] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.results)

    @property
    def total_time(self) -> float:
        """Wall-span from this workload's first step start to last step end."""
        if not self.results:
            return 0.0
        return self.results[-1].end_time - self.results[0].start_time

    @property
    def mean_step_time(self) -> float:
        return self.total_time / len(self.results) if self.results else 0.0

    @property
    def steady_step_time(self) -> float:
        """Duration of the final step (managed-phase steady state)."""
        return self.results[-1].duration if self.results else 0.0

    @property
    def steps_per_second(self) -> float:
        return len(self.results) / self.total_time if self.total_time > 0 else 0.0


@dataclass
class ClusterReport:
    """Aggregate outcome of a concurrent run."""

    workloads: List[WorkloadReport]
    makespan: float
    #: machine-global migration traffic across the whole run
    promoted_bytes: int
    demoted_bytes: int
    #: per-channel busy seconds and mean queueing delay — the direct
    #: evidence of contention (isolated runs queue ~0 behind themselves)
    channel_busy: Dict[str, float]
    channel_queue_delay: Dict[str, float]

    @property
    def aggregate_steps_per_second(self) -> float:
        """Total step throughput of the machine."""
        if self.makespan <= 0:
            return 0.0
        return sum(w.steps for w in self.workloads) / self.makespan

    @property
    def fairness(self) -> float:
        """Jain's fairness index over per-workload step rates.

        1.0 means every tenant progressed at the same steps/second; 1/N is
        total starvation of all but one.
        """
        rates = [w.steps_per_second for w in self.workloads]
        total = sum(rates)
        if total <= 0:
            return 0.0
        square_sum = sum(r * r for r in rates)
        return (total * total) / (len(rates) * square_sum)

    def workload(self, name: str) -> WorkloadReport:
        for report in self.workloads:
            if report.name == name:
                return report
        raise KeyError(f"no workload named {name!r}")


def _drive(
    executor: Executor,
    steps: int,
    report: WorkloadReport,
    tracer: Optional["EventTracer"],
):
    """Workload driver process: run ``steps`` training steps back to back."""
    for _ in range(steps):
        result = yield from executor.step_process()
        report.results.append(result)
        if tracer is not None:
            tracer.instant(
                "workload-step",
                "cluster",
                ts=result.end_time,
                track=report.name,
                step=result.step,
                duration=result.duration,
            )


def run_concurrent(
    workloads: Sequence[WorkloadSpec],
    machine: Optional[Machine] = None,
    platform: Optional[Platform] = None,
    fast_fraction: Optional[float] = None,
    fast_capacity: Optional[int] = None,
    pressure=_UNSET,
    tracer: Optional["EventTracer"] = None,
    metrics: Optional["MetricsRegistry"] = None,
) -> ClusterReport:
    """Co-schedule ``workloads`` on one machine and return the outcome.

    Args:
        workloads: two or more (one is legal — it degenerates to the
            single-workload engine path) tenant specs with unique names.
        machine: run on an existing machine; otherwise one is built from
            ``platform`` (default: the Optane platform).
        fast_fraction: size fast memory as this fraction of the *combined*
            peak packed consumption of all workload graphs — the shared
            pool analogue of the paper's 20%-of-peak convention.
        fast_capacity: explicit fast-tier bytes (wins over the fraction).
        pressure: a :class:`~repro.mem.pressure.PressureConfig` for the
            built machine.  Defaults to :data:`DEFAULT_CLUSTER_PRESSURE`
            (spill-to-slow watermarks) because co-tenants sharing a small
            fast tier would otherwise die on ``DeviceFullError``; pass
            ``None`` explicitly for a governor-free machine.  Ignored when
            ``machine`` is supplied.
        tracer: optional event tracer; workload step/layer spans land on
            per-workload tracks and each step completion emits a
            ``cluster``-category instant.
        metrics: optional metrics registry for the built machine.  With an
            explicit ``machine``, both must be its own (``tracer``, ``stats``).

    Returns:
        A :class:`ClusterReport` with per-workload
        :class:`~repro.dnn.executor.StepResult` streams and machine-wide
        contention/fairness aggregates.
    """
    specs = list(workloads)
    if not specs:
        raise ValueError("run_concurrent needs at least one workload")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(
            f"workload names must be unique, got duplicates {duplicates!r} "
            f"in {names!r} — give each WorkloadSpec its own name"
        )
    for spec in specs:
        # WorkloadSpec is mutable; re-check here so a spec edited after
        # construction still fails loudly instead of hanging the engine.
        if spec.steps <= 0:
            raise ValueError(
                f"workload {spec.name!r}: steps must be positive, got "
                f"{spec.steps!r}"
            )

    graphs = [spec.build_graph() for spec in specs]
    for spec, graph in zip(specs, graphs):
        if not graph.layers:
            raise ValueError(
                f"workload {spec.name!r}: graph has no layers — nothing to "
                f"execute (build_model output or a hand-built Graph must "
                f"contain at least one layer)"
            )
    if machine is None:
        if platform is None:
            from repro.mem.platforms import OPTANE_HM

            platform = OPTANE_HM
        if fast_capacity is None and fast_fraction is not None:
            fast_capacity = fast_capacity_for(
                sum(graph.peak_memory_bytes() for graph in graphs),
                fast_fraction,
                platform,
            )
        config = DEFAULT_CLUSTER_PRESSURE if pressure is _UNSET else pressure
        machine = Machine.for_platform(
            platform,
            fast_capacity=fast_capacity,
            tracer=tracer,
            pressure=config,
            metrics=metrics,
        )
    else:
        machine.require_observers(tracer=tracer, metrics=metrics)

    engine = Engine()
    promoted0 = machine.stats.counter("migration.promoted_bytes").value
    demoted0 = machine.stats.counter("migration.demoted_bytes").value

    reports: List[WorkloadReport] = []
    start = engine.now
    for spec, graph in zip(specs, graphs):
        policy = make_policy(
            spec.policy, sentinel_config=_sentinel_config(spec.sentinel_config)
        )
        executor = Executor(
            graph, machine, policy, engine=engine, track=spec.name
        )
        report = WorkloadReport(name=spec.name, policy=spec.policy)
        reports.append(report)
        engine.process(
            _drive(
                executor, spec.steps + setup_steps(policy), report, machine.tracer
            ),
            name=spec.name,
        )
    engine.run()
    engine.ensure_quiescent()

    channels = (
        machine.promote_channel,
        machine.demote_channel,
        machine.demand_channel,
    )
    channel_busy = {ch.name: ch.busy_time for ch in channels}
    channel_queue_delay = {ch.name: ch.mean_queueing_delay for ch in channels}

    return ClusterReport(
        workloads=reports,
        makespan=engine.now - start,
        promoted_bytes=int(
            machine.stats.counter("migration.promoted_bytes").value - promoted0
        ),
        demoted_bytes=int(
            machine.stats.counter("migration.demoted_bytes").value - demoted0
        ),
        channel_busy=channel_busy,
        channel_queue_delay=channel_queue_delay,
    )
