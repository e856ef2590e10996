"""Event-kernel determinism and the executor's driver guards.

``Executor.run_step()`` drives the step body as a process on the
discrete-event engine (channel completions fire as ``TRANSFER_DONE``
events, migration commits happen at their analytic finish instants).  The
same workload must fire the same events in the same order, and one
machine must never be driven by two engines.  That the engine computes
the historical lockstep times is pinned by the golden corpus
(``tests/golden``).
"""

import pytest

from repro.baselines.registry import make_policy
from repro.core.runtime import SentinelConfig
from repro.dnn.executor import Executor
from repro.errors import ExecutionError
from repro.harness.runner import EXPERIMENT_WARMUP_STEPS
from repro.mem.machine import Machine
from repro.mem.platforms import OPTANE_HM
from repro.models.zoo import build_model

STEPS = 7  # enough to cross Sentinel's warmup -> profiling -> managed phases


def build_setup(model, policy_name, platform):
    graph = build_model(model)
    fast_capacity = max(
        platform.page_size, int(graph.peak_memory_bytes() * 0.2)
    )
    machine = Machine.for_platform(platform, fast_capacity=fast_capacity)
    policy = make_policy(
        policy_name,
        sentinel_config=SentinelConfig(warmup_steps=EXPERIMENT_WARMUP_STEPS),
    )
    return Executor(graph, machine, policy)


class TestEventOrderDeterminism:
    """Same seed + same workload ⇒ the engine fires the *same events in the
    same order*, not merely the same aggregate numbers."""

    def fired_events(self, chaos_seed=None):
        from repro.chaos import ChaosConfig, FaultInjector
        from repro.sim.engine import Engine, EventKind

        graph = build_model("dcgan")
        injector = None
        if chaos_seed is not None:
            injector = FaultInjector(ChaosConfig.uniform(0.2, seed=chaos_seed))
        machine = Machine.for_platform(
            OPTANE_HM,
            fast_capacity=max(
                OPTANE_HM.page_size, int(graph.peak_memory_bytes() * 0.2)
            ),
            injector=injector,
        )
        policy = make_policy(
            "sentinel",
            sentinel_config=SentinelConfig(warmup_steps=EXPERIMENT_WARMUP_STEPS),
        )
        engine = Engine()
        executor = Executor(graph, machine, policy, engine=engine)
        log = []

        def record(event):
            log.append((event.time, event.seq, event.kind.name, event.name))

        for kind in EventKind:
            engine.subscribe(kind, record)
        for _ in range(STEPS):
            executor.run_step()
        return log

    def test_identical_event_log_across_runs(self):
        first = self.fired_events()
        second = self.fired_events()
        assert first == second
        assert first  # the engine actually fired events

    def test_identical_event_log_under_chaos(self):
        assert self.fired_events(chaos_seed=13) == self.fired_events(
            chaos_seed=13
        )

    def test_chaos_seed_perturbs_the_event_log(self):
        assert self.fired_events(chaos_seed=13) != self.fired_events(
            chaos_seed=14
        )

    def test_event_log_spans_the_kernel_taxonomy(self):
        kinds = {kind for _, _, kind, _ in self.fired_events(chaos_seed=13)}
        assert {"TRANSFER_DONE", "FAULT"} <= kinds


class TestDriverGuards:
    def test_inline_after_engine_is_rejected(self):
        # A second engine on a machine already bound to one would silently
        # race the queued TRANSFER_DONE events; the executor refuses the
        # second executor instead.
        executor = build_setup("dcgan", "ial", OPTANE_HM)
        executor.run_step()
        second = Executor(
            executor.graph, executor.machine, make_policy("ial")
        )
        with pytest.raises(ExecutionError, match="already driven"):
            second.run_step()

    def test_run_steps_still_validates_count(self):
        executor = build_setup("dcgan", "ial", OPTANE_HM)
        with pytest.raises(ValueError, match="positive"):
            executor.run_steps(0)
