#!/usr/bin/env python
"""Where do the Joules go? Energy accounting per memory-management policy.

§IV-C of the paper argues that moving short-lived tensors is "highly
inefficient in terms of both performance and energy efficiency"; this
example quantifies the claim on the simulated Optane machine and drills
into a trace to show which tensor kinds pay the slow-memory energy.

Usage::

    python examples/energy_analysis.py [model] [fast_fraction]
"""

import sys

from repro.dnn import Executor, StepObserver
from repro.baselines.registry import make_policy
from repro.core.runtime import SentinelConfig
from repro.harness import format_table, run_policy
from repro.mem import Machine, OPTANE_ENERGY, OPTANE_HM, estimate_step_energy
from repro.models import build_model


class SlowTimeByKind(StepObserver):
    """Memory time of slow-served accesses in the latest step, by tensor kind."""

    def on_step_start(self, step, now):
        self.totals = {}

    def record(self, step, layer, op, access, charge, now):
        if charge.bytes_slow:
            kind = access.tensor.kind.value
            self.totals[kind] = self.totals.get(kind, 0.0) + charge.mem_time


def main() -> None:
    model = sys.argv[1] if len(sys.argv) > 1 else "resnet32"
    fraction = float(sys.argv[2]) if len(sys.argv) > 2 else 0.2

    rows = []
    for policy in ("slow-only", "first-touch", "ial", "autotm", "sentinel"):
        frac = None if policy == "slow-only" else fraction
        metrics = run_policy(policy, model=model, fast_fraction=frac)
        energy = estimate_step_energy(metrics, OPTANE_ENERGY)
        rows.append(
            (
                policy,
                f"{metrics.step_time:.4f}",
                f"{energy.fast_access:.2f}",
                f"{energy.slow_access:.2f}",
                f"{energy.migration:.2f}",
                f"{energy.total:.2f}",
            )
        )
    print(
        format_table(
            ("policy", "step (s)", "fast J", "slow J", "migration J", "total J"),
            rows,
            title=f"Energy per training step — {model}, fast = {fraction:.0%} of peak",
        )
    )

    # Drill-down: trace one managed Sentinel step and attribute slow-memory
    # time (the energy-expensive accesses) by tensor kind.
    graph = build_model(model)
    machine = Machine.for_platform(
        OPTANE_HM, fast_capacity=int(graph.peak_memory_bytes() * fraction)
    )
    observer = SlowTimeByKind()
    policy = make_policy("sentinel", sentinel_config=SentinelConfig(warmup_steps=1))
    executor = Executor(graph, machine, policy, observers=[observer])
    executor.run_steps(4)  # the last one is a managed step

    totals = observer.totals
    print(
        format_table(
            ("tensor kind", "slow-memory time (ms)"),
            [(kind, f"{seconds * 1e3:.2f}") for kind, seconds in sorted(totals.items())],
            title="\nSentinel's residual slow-memory time by tensor kind "
            "(short-lived temps should be ~absent: the reservation works)",
        )
    )


if __name__ == "__main__":
    main()
