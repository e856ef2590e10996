"""Executor: step timing, lifecycle, observers, determinism."""

import pytest

from repro.baselines.registry import make_policy
from repro.dnn.executor import Executor, StepObserver
from repro.dnn.graph import GraphBuilder, Phase
from repro.dnn.policy import PlacementPolicy
from repro.dnn.tensor import TensorKind
from repro.mem.devices import DeviceKind
from repro.mem.machine import Machine
from repro.mem.platforms import OPTANE_HM
from repro.models import build_model
from repro.obs.insight import InsightCollector, InsightScope


def two_layer_graph():
    b = GraphBuilder("two", batch_size=8)
    w = b.weight("w", 1 << 20)
    x = b.input("x", 1 << 18)
    with b.layer("fwd"):
        act = b.tensor("act", 1 << 18)
        tmp = b.temp("tmp", 128)
        b.op("mm", flops=1e9, reads=[x, w], writes=[act, tmp])
    with b.layer("bwd", Phase.BACKWARD):
        grad = b.tensor("grad", 1 << 20, TensorKind.GRADIENT)
        b.op("mm_bwd", flops=2e9, reads=[act], writes=[grad])
        b.op("apply", flops=1e6, reads=[grad], writes=[w])
    return b.finish()


class FastOnly(PlacementPolicy):
    name = "fast-only-test"

    def place(self, tensor, now):
        return DeviceKind.FAST


def run_once(policy=None, graph=None):
    graph = graph if graph is not None else two_layer_graph()
    machine = Machine(OPTANE_HM)
    executor = Executor(graph, machine, policy or PlacementPolicy())
    return executor, machine, executor.run_step()


class TestTiming:
    def test_roofline_per_op(self):
        """Step duration equals the sum of per-op max(compute, memory)."""
        _, machine, result = run_once()
        assert result.duration == pytest.approx(result.end_time - result.start_time)
        assert result.duration >= max(result.compute_time, 0)
        # With everything on slow, memory should dominate at least one op.
        assert result.mem_time > 0

    def test_fast_placement_is_faster(self):
        _, _, slow_result = run_once(PlacementPolicy())
        _, _, fast_result = run_once(FastOnly())
        assert fast_result.duration < slow_result.duration

    def test_steps_are_deterministic(self):
        _, _, a = run_once()
        _, _, b = run_once()
        assert a.duration == b.duration
        assert a.mem_time == b.mem_time

    def test_steady_state_across_steps(self):
        graph = two_layer_graph()
        machine = Machine(OPTANE_HM)
        executor = Executor(graph, machine, PlacementPolicy())
        results = executor.run_steps(3)
        assert results[1].duration == pytest.approx(results[2].duration)


class TestLifecycle:
    def test_preallocated_mapped_before_first_step(self):
        graph = two_layer_graph()
        machine = Machine(OPTANE_HM)
        executor = Executor(graph, machine, PlacementPolicy())
        assert executor.allocator.mapping(graph.tensor("w")) is not None
        assert executor.allocator.mapping(graph.tensor("x")) is not None

    def test_step_tensors_freed_after_step(self):
        graph = two_layer_graph()
        machine = Machine(OPTANE_HM)
        executor = Executor(graph, machine, PlacementPolicy())
        executor.run_step()
        assert executor.allocator.mapping(graph.tensor("act")) is None
        assert executor.allocator.mapping(graph.tensor("grad")) is None

    def test_memory_returns_to_baseline_between_steps(self):
        graph = two_layer_graph()
        machine = Machine(OPTANE_HM)
        executor = Executor(graph, machine, PlacementPolicy())
        executor.run_step()
        baseline = machine.slow.used
        executor.run_step()
        assert machine.slow.used == baseline

    def test_peak_usage_recorded(self):
        _, machine, result = run_once()
        assert result.peak_slow > 0
        assert result.peak_slow >= machine.slow.used

    def test_run_steps_validates_count(self):
        graph = two_layer_graph()
        executor = Executor(graph, Machine(OPTANE_HM), PlacementPolicy())
        with pytest.raises(ValueError):
            executor.run_steps(0)


class TestObservers:
    def test_observer_sees_full_lifecycle(self):
        events = []

        class Recorder(StepObserver):
            def on_step_start(self, step, now):
                events.append(("step_start", step))

            def on_tensor_allocated(self, tensor, mapping, now):
                events.append(("alloc", tensor.name))

            def on_tensor_freed(self, tensor, mapping, now):
                events.append(("free", tensor.name))

            def on_layer_end(self, layer, now):
                events.append(("layer_end", layer.index))

            def on_step_end(self, step, result):
                events.append(("step_end", step))

        graph = two_layer_graph()
        machine = Machine(OPTANE_HM)
        executor = Executor(
            graph, machine, PlacementPolicy(), observers=[Recorder()]
        )
        executor.run_step()
        assert ("alloc", "w") in events  # preallocation observed
        assert ("alloc", "act") in events
        assert ("free", "act") in events
        assert events.index(("free", "act")) < events.index(("layer_end", 1))
        assert events[-1] == ("step_end", 0)

    @pytest.fixture(scope="class")
    def recorded_run(self):
        """A mixed fast/slow dcgan step with a per-access observer."""

        class Accesses(StepObserver):
            def __init__(self):
                self.calls = []

            def record(self, step, layer, op, access, charge, now):
                self.calls.append((step, layer, op, access, charge, now))

        graph = build_model("dcgan", batch_size=8)
        machine = Machine.for_platform(
            OPTANE_HM, fast_capacity=int(graph.peak_memory_bytes() * 0.3)
        )
        observer = Accesses()
        executor = Executor(
            graph, machine, make_policy("first-touch"), observers=[observer]
        )
        return graph, observer.calls, executor.run_step()

    def test_record_called_once_per_access(self, recorded_run):
        graph, calls, _ = recorded_run
        expected = [
            (op, access)
            for layer in graph.layers
            for op in layer.ops
            for access in op.accesses
        ]
        assert [(op, access) for _, _, op, access, _, _ in calls] == expected

    def test_record_carries_step_layer_and_time(self, recorded_run):
        _, calls, result = recorded_run
        assert all(step == 0 and op in layer.ops for step, layer, op, *_ in calls)
        times = [now for *_, now in calls]
        assert times == sorted(times)
        assert result.start_time <= times[0] and times[-1] <= result.end_time

    def test_record_charges_sum_to_step_traffic(self, recorded_run):
        _, calls, result = recorded_run
        charges = [charge for *_, charge, _ in calls]
        assert result.bytes_fast > 0 and result.bytes_slow > 0
        assert sum(charge.bytes_fast for charge in charges) == result.bytes_fast
        assert sum(charge.bytes_slow for charge in charges) == result.bytes_slow

    def test_duck_typed_observer_without_record_runs_a_step(self):
        class Lifecycle:  # no StepObserver base and no record()
            def __init__(self):
                self.events = []

            def on_step_start(self, step, now):
                self.events.append(("start", step))

            def on_tensor_allocated(self, tensor, mapping, now):
                pass

            def on_tensor_freed(self, tensor, mapping, now):
                pass

            def on_layer_end(self, layer, now):
                pass

            def on_step_end(self, step, result):
                self.events.append(("end", step))

        observer = Lifecycle()
        executor = Executor(
            two_layer_graph(),
            Machine(OPTANE_HM),
            PlacementPolicy(),
            observers=[observer],
        )
        result = executor.run_step()
        _, _, bare = run_once()
        assert observer.events == [("start", 0), ("end", 0)]
        assert result.duration == bare.duration

    def test_machine_insight_attaches_one_scope_named_after_the_track(self):
        collector = InsightCollector()
        machine = Machine(OPTANE_HM, insight=collector)
        caller = StepObserver()
        graph = two_layer_graph()
        executor = Executor(
            graph, machine, PlacementPolicy(), observers=[caller], track="job-7"
        )
        scopes = [o for o in executor.observers if isinstance(o, InsightScope)]
        assert [scope.name for scope in scopes] == ["job-7"]
        assert executor.observers == [caller, scopes[0]]
        executor.run_step()
        collector.finalize(executor.clock.now)
        rows = collector.report()["tensors"]
        assert {row["scope"] for row in rows} == {"job-7"}
        accesses = sum(len(op.accesses) for layer in graph.layers for op in layer.ops)
        assert sum(row["accesses"] for row in rows) == accesses

    def test_layer_spans_cover_step(self):
        _, _, result = run_once()
        assert [span[0] for span in result.layer_spans] == [0, 1]
        assert result.layer_spans[0][1] == result.start_time
        assert result.layer_spans[-1][2] == pytest.approx(result.end_time)


class TestStallAccounting:
    def test_policy_layer_stall_charged(self):
        class Staller(PlacementPolicy):
            def on_layer_start(self, layer, now):
                return 0.25

        _, _, plain = run_once()
        _, _, stalled = run_once(Staller())
        assert stalled.stall_time == pytest.approx(0.5)  # two layers
        assert stalled.duration == pytest.approx(plain.duration + 0.5)

    def test_negative_stall_rejected(self):
        class Bad(PlacementPolicy):
            def on_layer_start(self, layer, now):
                return -1.0

        from repro.dnn.executor import ExecutionError

        graph = two_layer_graph()
        executor = Executor(graph, Machine(OPTANE_HM), Bad())
        with pytest.raises(ExecutionError):
            executor.run_step()


class TestTeardown:
    def test_returns_all_memory_after_a_step(self):
        executor, machine, _ = run_once()
        assert machine.fast.used + machine.slow.used > 0
        executor.teardown()
        assert machine.fast.used == 0
        assert machine.slow.used == 0
        assert len(machine.page_table) == 0

    def test_arena_allocator_releases_its_slabs(self):
        # ial's arena retains pages across free() by design; teardown must
        # still hand every slab back to the machine.
        from repro.baselines.registry import make_policy
        from repro.chaos import InvariantAuditor

        machine = Machine(OPTANE_HM)
        executor = Executor(two_layer_graph(), machine, make_policy("ial"))
        executor.run_step()
        executor.teardown()
        assert machine.fast.used == 0 and machine.slow.used == 0
        assert len(machine.page_table) == 0
        assert InvariantAuditor(machine).audit() is None

    def test_teardown_is_idempotent(self):
        executor, machine, _ = run_once()
        executor.teardown()
        executor.teardown()
        assert machine.fast.used == 0 and machine.slow.used == 0

    def test_teardown_mid_step_settles_in_flight_state(self):
        from repro.baselines.registry import make_policy
        from repro.chaos import InvariantAuditor
        from repro.sim.engine import Engine, Interrupt

        engine = Engine()
        machine = Machine(OPTANE_HM)
        executor = Executor(
            two_layer_graph(), machine, make_policy("ial"), engine=engine
        )

        def body():
            try:
                yield from executor.step_process()
            except Interrupt:
                pass

        proc = engine.process(body(), name="job")
        full = Executor(two_layer_graph(), Machine(OPTANE_HM), make_policy("ial"))
        duration = full.run_step().duration
        engine.run(until=duration / 2)
        assert not proc.done
        proc.interrupt(Interrupt("cancelled mid-step"))
        executor.teardown()
        assert machine.fast.used == 0 and machine.slow.used == 0
        assert len(machine.page_table) == 0
        assert InvariantAuditor(machine).audit() is None
