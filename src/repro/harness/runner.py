"""Single-experiment orchestration.

:func:`run_policy` is the workhorse: build a machine sized for the
experiment (the paper's "fast memory = X% of the model's peak consumption"),
attach a policy, run enough steps to pass Sentinel's warm-up/profiling/trial
phases, and measure the steady state.

:func:`max_batch_size` reproduces Table V's methodology: largest batch a
policy can train given fixed device memory, found by exponential probe +
binary search on "does a training step complete without running out of
memory".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.baselines.registry import make_policy
from repro.chaos import ChaosConfig, FaultInjector, InvariantAuditor
from repro.core.runtime import SentinelConfig, SentinelPolicy
from repro.dnn.executor import Executor
from repro.dnn.graph import Graph
from repro.errors import MemoryPressureError
from repro.mem.admission import controller_for
from repro.mem.machine import Machine
from repro.mem.platforms import OPTANE_HM, Platform
from repro.mem.pressure import PressureConfig
from repro.mem.ras import RASConfig
from repro.models.zoo import build_model

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.insight import InsightCollector
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import EventTracer

#: Warm-up steps for experiments: Sentinel's behaviour before profiling is
#: policy-free (slow placement), so two steps are enough to exercise the
#: phase machinery without inflating simulation time.  The paper's 10 are
#: TensorFlow hardware-detection steps with no memory-management role.
EXPERIMENT_WARMUP_STEPS = 2

#: Steps run after the managed phase begins, the last of which is measured.
STEADY_STEPS = 4


@dataclass
class RunMetrics:
    """Steady-state measurements of one (model, policy, machine) run."""

    model: str
    policy: str
    batch_size: int
    fast_capacity: int
    step_time: float
    throughput: float  # samples / second
    compute_time: float
    mem_time: float
    stall_time: float
    fault_time: float
    promoted_bytes: int
    demoted_bytes: int
    bytes_fast: int
    bytes_slow: int
    peak_fast: int
    peak_slow: int
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def migrated_bytes(self) -> int:
        return self.promoted_bytes + self.demoted_bytes


def _sentinel_config(overrides: Optional[SentinelConfig]) -> SentinelConfig:
    if overrides is not None:
        return overrides
    return SentinelConfig(warmup_steps=EXPERIMENT_WARMUP_STEPS)


def setup_steps(policy) -> int:
    """Steps ``policy`` runs before its steady state: Sentinel's warm-up
    steps plus its profiling step, 0 for every other policy."""
    if isinstance(policy, SentinelPolicy):
        return policy.config.warmup_steps + 1
    return 0


def fast_capacity_for(
    peak_bytes: int, fast_fraction: float, platform: Platform
) -> int:
    """Fast-tier bytes for ``fast_fraction`` of ``peak_bytes`` (the paper's
    "fast memory = X% of peak" convention), at least one page.

    Raises ``ValueError`` unless the fraction is positive, so a zero,
    negative or NaN fraction never becomes a one-page fast tier.
    """
    if not 0 < fast_fraction:
        raise ValueError(f"fast fraction must be positive: {fast_fraction!r}")
    return max(platform.page_size, int(peak_bytes * fast_fraction))


def run_policy(
    policy_name: str,
    graph: Optional[Graph] = None,
    model: Optional[str] = None,
    batch_size: Optional[int] = None,
    scale: str = "small",
    platform: Platform = OPTANE_HM,
    fast_fraction: Optional[float] = None,
    fast_capacity: Optional[int] = None,
    steady_steps: int = STEADY_STEPS,
    sentinel_config: Optional[SentinelConfig] = None,
    chaos: Optional[ChaosConfig] = None,
    audit: bool = False,
    tracer: Optional["EventTracer"] = None,
    pressure: Optional[PressureConfig] = None,
    metrics: Optional["MetricsRegistry"] = None,
    ras: Optional[RASConfig] = None,
    insight: Optional["InsightCollector"] = None,
    admission: Optional[str] = None,
    admission_args: Optional[Dict[str, object]] = None,
) -> RunMetrics:
    """Run one policy on one workload and return steady-state metrics.

    Exactly one of ``graph`` or ``model`` must be given.  Fast memory is
    sized by ``fast_capacity`` (bytes), ``fast_fraction`` (of the graph's
    peak packed consumption — the paper's convention), or left at the
    platform's full size.

    ``chaos`` attaches a seeded :class:`~repro.chaos.FaultInjector` to the
    machine (deterministic fault injection; ``None`` leaves the fault-free
    code paths untouched).  ``audit`` adds the per-step
    :class:`~repro.chaos.InvariantAuditor`, which raises
    :class:`~repro.errors.ConsistencyError` the moment memory accounting
    stops balancing.

    ``tracer`` attaches a :class:`repro.obs.EventTracer` to the machine so
    the whole run lands in a structured event trace; ``None`` (the default)
    keeps every traced code path dormant and the metrics bit-identical to
    untraced runs.

    ``pressure`` attaches a :class:`~repro.mem.pressure.PressureGovernor`
    (watermark admission control, spill-to-slow, arena compaction); the
    default ``None`` — or a config with watermarks at 100% and no reserve —
    leaves the run byte-identical to a governor-free machine.

    ``metrics`` is the :class:`repro.obs.metrics.MetricsRegistry` the
    machine counts into (it becomes ``machine.stats``), so the caller can
    read the run's counters back; the default ``None`` gives the machine a
    registry of its own.  Counting never changes the run.

    ``ras`` attaches a :class:`~repro.mem.ras.RasEngine` (seeded CE/UE
    injection, patrol scrubbing, page retirement, tensor recovery); the
    default ``None`` — or a config with all rates zero — leaves the run
    byte-identical to a pre-RAS machine.

    ``insight`` attaches a :class:`repro.obs.insight.InsightCollector`
    (per-tensor residency timelines, heat/churn analytics) to the machine,
    whose executor then observes through the collector's ``"main"`` scope;
    the run finalizes the collector so :meth:`~repro.obs.insight.InsightCollector.report`
    is ready afterwards.  The default ``None`` keeps every hook dormant and
    the run — including any attached tracer/metrics — byte-identical to an
    insight-free build.

    ``admission`` attaches a migration admission controller to the
    machine, by registered name (``"always"``, ``"benefit-cost"``,
    ``"feedback"``), built fresh per run with ``admission_args`` as
    constructor kwargs (:func:`~repro.mem.admission.controller_for`).  The
    default ``None`` keeps both engine gate sites dormant; ``"always"``
    admits everything and leaves traces and metrics byte-identical to
    ``None`` (admission counters land in extras only when a controller is
    attached).
    """
    if (graph is None) == (model is None):
        raise ValueError("provide exactly one of graph= or model=")
    if graph is None:
        graph = build_model(model, batch_size=batch_size, scale=scale)
    if fast_capacity is None and fast_fraction is not None:
        fast_capacity = fast_capacity_for(
            graph.peak_memory_bytes(), fast_fraction, platform
        )
    controller = controller_for(admission, admission_args)
    injector = FaultInjector(chaos) if chaos is not None else None
    machine = Machine.for_platform(
        platform,
        fast_capacity=fast_capacity,
        injector=injector,
        tracer=tracer,
        pressure=pressure,
        metrics=metrics,
        ras=ras,
        insight=insight,
        admission=controller,
    )

    policy = make_policy(policy_name, sentinel_config=_sentinel_config(sentinel_config))
    observers = [InvariantAuditor(machine)] if audit else []
    executor = Executor(graph, machine, policy, observers=observers)

    results = executor.run_steps(steady_steps + setup_steps(policy))
    last = results[-1]
    if insight is not None:
        insight.finalize(executor.clock.now)

    extras: Dict[str, float] = {}
    if isinstance(policy, SentinelPolicy):
        extras["profiling_steps"] = policy.profiling_steps_used
        extras["trial_steps"] = policy.trial_steps_used
        extras["case2"] = policy.case2_occurrences
        extras["case3"] = policy.case3_occurrences
        extras["prefetch_landed_bytes"] = policy.prefetch_landed_bytes
        if chaos is not None:
            extras["reprofile_steps"] = policy.reprofile_steps_used
            extras["case3_fallbacks"] = policy.case3_fallbacks
        if policy.plan is not None:
            extras["interval_length"] = policy.plan.interval_length
            extras["reserved_short_bytes"] = policy.plan.reserved_short_bytes
        if policy.profile is not None:
            extras["profiling_step_time"] = results[
                policy.config.warmup_steps
            ].duration
            extras["memory_overhead"] = policy.profile.memory_overhead
    recompute = getattr(policy, "recompute_time", None)
    if recompute is not None:
        extras["recompute_time"] = recompute
    if chaos is not None:
        # Surface the degradation machinery's counters next to the injected
        # event counts.  Only when chaos is active: a chaos-free run's
        # metrics stay bit-identical to runs predating fault injection.
        extras["migration_retries"] = machine.stats.counter(
            "migration.retries"
        ).value
        extras["busy_fallbacks"] = machine.stats.counter(
            "migration.busy_fallbacks"
        ).value
        extras["aborted_bytes"] = machine.stats.counter(
            "migration.aborted_bytes"
        ).value
        extras["faults_dropped"] = machine.fault_handler.faults_dropped
        for key, count in sorted(injector.counts.items()):
            extras[key] = count
    if machine.pressure is not None:
        # Only with an enabled governor: pressure-free runs keep metrics
        # bit-identical to runs predating the governor.
        for key, value in sorted(machine.stats.counters("pressure.").items()):
            extras[key] = value
        extras["migration.relocated_bytes"] = machine.stats.counter(
            "migration.relocated_bytes"
        ).value
    if machine.ras is not None:
        # Only with an enabled RAS engine: RAS-free runs keep metrics
        # bit-identical to runs predating the subsystem.
        for key, count in sorted(machine.ras.counts.items()):
            extras[key] = count
        extras["ras.remat_bytes"] = machine.ras.remat_bytes
        extras["ras.remat_time"] = machine.ras.remat_time
        extras["ras.refetch_time"] = machine.ras.refetch_time
        extras["ras.scrub_swept_bytes"] = machine.ras.scrub_swept_bytes
    if machine.admission is not None:
        # Only with a controller attached: admission-free runs keep metrics
        # bit-identical to runs predating the subsystem.
        extras["admission.controller"] = machine.admission.name
        for key, value in sorted(machine.stats.counters("admission.").items()):
            extras[key] = value
    if insight is not None:
        # Only with a collector attached: insight-free runs keep metrics
        # bit-identical to runs predating the subsystem.
        extras.update(insight.summary())

    return RunMetrics(
        model=graph.name,
        policy=policy_name,
        batch_size=graph.batch_size,
        fast_capacity=machine.fast.capacity,
        step_time=last.duration,
        throughput=graph.batch_size / last.duration if last.duration > 0 else 0.0,
        compute_time=last.compute_time,
        mem_time=last.mem_time,
        stall_time=last.stall_time,
        fault_time=last.fault_time,
        promoted_bytes=last.promoted_bytes,
        demoted_bytes=last.demoted_bytes,
        bytes_fast=last.bytes_fast,
        bytes_slow=last.bytes_slow,
        peak_fast=last.peak_fast,
        peak_slow=last.peak_slow,
        extras=extras,
    )


#: The "ran out of memory" branch of the exception hierarchy: feasibility
#: probes treat it as infeasible-not-broken.  One base class instead of an
#: enumerated tuple, so new capacity-wall errors are covered automatically.
OOM_ERRORS = (MemoryPressureError,)


def batch_feasible(
    policy_name: str,
    model: str,
    batch_size: int,
    platform: Platform,
    sentinel_config: Optional[SentinelConfig] = None,
) -> bool:
    """Whether one training step completes without running out of memory."""
    try:
        run_policy(
            policy_name,
            model=model,
            batch_size=batch_size,
            platform=platform,
            steady_steps=1,
            sentinel_config=sentinel_config,
        )
        return True
    except OOM_ERRORS:
        return False


def max_batch_size(
    policy_name: str,
    model: str,
    platform: Platform,
    start: int = 1,
    limit: int = 1 << 16,
    sentinel_config: Optional[SentinelConfig] = None,
) -> int:
    """Largest feasible batch size (Table V's metric); 0 if even ``start``
    fails, raising :class:`UnsupportedModelError` through for policies whose
    domain knowledge rejects the model outright (vDNN on recurrent graphs).
    """
    if not batch_feasible(policy_name, model, start, platform, sentinel_config):
        return 0
    low = start
    high = start
    while high < limit and batch_feasible(
        policy_name, model, high * 2, platform, sentinel_config
    ):
        low = high * 2
        high = low
    high = min(limit, high * 2)
    # Binary search in (low, high): low is feasible, high is not (or limit).
    while low + 1 < high:
        mid = (low + high) // 2
        if batch_feasible(policy_name, model, mid, platform, sentinel_config):
            low = mid
        else:
            high = mid
    return low
