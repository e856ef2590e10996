"""The training-step executor.

Runs a :class:`~repro.dnn.graph.Graph` against a
:class:`~repro.mem.machine.Machine` under a
:class:`~repro.dnn.policy.PlacementPolicy`, producing a
:class:`StepResult` per step with the timing/traffic breakdown the
experiments report.

Timing model per op::

    op_time = max(compute_time, memory_time) + stall + fault_overhead

``compute_time`` is FLOPs over the platform's effective throughput;
``memory_time`` prices each access against the tier its pages occupy
(roofline-style overlap of compute and memory streams); ``stall`` is
exposed migration time (waiting for residency / Case-3 waits); ``fault``
is profiling-fault handling, nonzero only while Sentinel profiles.

Tensor lifecycle follows the paper's TensorFlow observations: preallocated
tensors (weights, inputs, globals) are mapped once before the first step and
persist; every other tensor is allocated at its first access and freed at
the end of the last layer that touches it, *every step* — which is what lets
Sentinel re-organize them across steps without creating wild pointers.

Execution model
---------------

The step body lives in :meth:`Executor.step_process`, a generator that
yields every interval the simulated clock must advance through (op
execution, policy stalls).  One driver consumes it: :meth:`Executor.run_step`
spawns the generator as a :class:`repro.sim.engine.Process` on a
discrete-event engine shared with the machine, so channel completions,
migration commits, and — in cluster mode — *other workloads* interleave
with this step at their true simulated instants.

``run_step()``/``run_steps()`` are the public API (they drive the engine
internally — see the migration note in docs/API.md); new code that
co-schedules workloads should spawn :meth:`step_process` on a shared
engine via :func:`repro.harness.cluster.run_concurrent`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.dnn.alloc import TensorMapping
from repro.dnn.graph import Graph, Layer
from repro.dnn.ops import Op, TensorAccess
from repro.dnn.policy import AccessCharge, PlacementPolicy
from repro.dnn.tensor import Tensor
from repro.errors import ExecutionError
from repro.mem.machine import Machine
from repro.sim.clock import Clock
from repro.sim.engine import Engine


class StepObserver:
    """Hooks for instrumentation (the profiler is one of these)."""

    def on_step_start(self, step: int, now: float) -> None:
        pass

    def on_tensor_allocated(
        self, tensor: Tensor, mapping: TensorMapping, now: float
    ) -> None:
        pass

    def on_tensor_freed(
        self, tensor: Tensor, mapping: TensorMapping, now: float
    ) -> None:
        pass

    def on_layer_end(self, layer: Layer, now: float) -> None:
        pass

    def on_step_end(self, step: int, result: "StepResult") -> None:
        pass

    def record(
        self,
        step: int,
        layer: Layer,
        op: Op,
        access: TensorAccess,
        charge: AccessCharge,
        now: float,
    ) -> None:
        """One op access and how the memory system priced it.

        The executor calls it only on observers that override it, a check
        made once when the executor is built."""


@dataclass
class StepResult:
    """Timing and traffic breakdown of one training step.

    In cluster runs (several executors on one machine) the
    ``promoted_bytes``/``demoted_bytes`` deltas and ``peak_fast``/
    ``peak_slow`` fields read *machine-global* state: they attribute all
    migration traffic during the step's wall-span to this workload.  For a
    single workload that is exact; for co-scheduled workloads use the
    cluster report's aggregate counters instead.
    """

    step: int
    start_time: float
    end_time: float
    compute_time: float = 0.0
    mem_time: float = 0.0
    stall_time: float = 0.0
    fault_time: float = 0.0
    bytes_fast: int = 0
    bytes_slow: int = 0
    promoted_bytes: int = 0
    demoted_bytes: int = 0
    peak_fast: int = 0
    peak_slow: int = 0
    layer_spans: List[Tuple[int, float, float]] = field(default_factory=list)
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def migrated_bytes(self) -> int:
        return self.promoted_bytes + self.demoted_bytes


class Executor:
    """Executes training steps of one graph under one policy.

    Args:
        graph: the workload.
        machine: the memory system; shared between executors in cluster
            mode.
        policy: placement policy instance (one per executor — policies
            hold per-workload state).
        observers: instrumentation hooks; the executor appends the scope
            of the machine's insight collector, if any, after them.
        engine: share an existing discrete-event engine (cluster mode).
            The executor adopts the engine's clock so all co-scheduled
            workloads tick the same timeline.  ``None`` (the default)
            creates a private engine lazily on the first ``run_step()``.
        track: trace-track label for this workload's step/layer spans;
            the default ``"main"`` keeps single-workload traces
            byte-identical to historical ones.
    """

    def __init__(
        self,
        graph: Graph,
        machine: Machine,
        policy: PlacementPolicy,
        observers: Sequence[StepObserver] = (),
        engine: Optional[Engine] = None,
        track: str = "main",
    ) -> None:
        self.graph = graph
        self.machine = machine
        self.policy = policy
        self.observers = list(observers)
        if machine.insight is not None:
            self.observers.append(machine.insight.scope(track))
        noop = StepObserver.record
        self._recorders = tuple(
            observer.record
            for observer in self.observers
            if getattr(type(observer), "record", noop) is not noop
        )
        self.track = track
        self.engine = engine
        self.clock = engine.clock if engine is not None else Clock()
        #: structured event tracer (repro.obs), owned by the machine; the
        #: executor's clock becomes its timestamp source so clockless
        #: components (fault handler, chaos injector) stamp correctly.
        self._events = machine.tracer
        if self._events is not None:
            self._events.bind_clock(self.clock)
        #: optional RAS engine (``Machine(ras=...)``).  Every hook below is
        #: one ``is None`` check; RAS-free runs stay byte-identical.  The
        #: producers table feeds rematerialization: the first op that
        #: *writes* a tensor is the op re-run to rebuild it after a UE.
        self._ras = machine.ras
        self._producers: Dict[int, Op] = {}
        if self._ras is not None:
            for layer in graph.layers:
                for op in layer.ops:
                    for access in op.accesses:
                        tid = access.tensor.tid
                        if access.is_write and tid not in self._producers:
                            self._producers[tid] = op
        policy.bind(machine, graph)
        if engine is not None:
            machine.bind_engine(engine)
            policy.on_engine(engine)
        self.allocator = policy.make_allocator()
        self._steps_run = 0
        self._frees_by_layer = self._index_frees(graph)
        self._build_op_tables()
        self._preallocate()

    def _build_op_tables(self) -> None:
        """Per-op static accounting tables for the step body.

        The graph and platform are fixed for the executor's lifetime, so
        per-op compute times (``flops / throughput``) are divided once up
        front, and each op's non-preallocated operands (the only ones
        allocated at first touch) are filtered once instead of per access
        per step.
        """
        ops = [op for layer in self.graph.layers for op in layer.ops]
        throughput = self.machine.platform.compute_throughput
        self._op_compute_times: List[float] = [op.flops / throughput for op in ops]
        self._op_step_tensors: List[Tuple[Tensor, ...]] = [
            tuple(
                access.tensor
                for access in op.accesses
                if not access.tensor.preallocated
            )
            for op in ops
        ]

    @staticmethod
    def _index_frees(graph: Graph) -> Dict[int, List[Tensor]]:
        frees: Dict[int, List[Tensor]] = {}
        for tensor in graph.step_tensors():
            assert tensor.free_layer is not None
            frees.setdefault(tensor.free_layer, []).append(tensor)
        return frees

    def _preallocate(self) -> None:
        now = self.clock.now
        for tensor in self.graph.preallocated():
            mapping = self.allocator.alloc(tensor, now)
            self.policy.on_alloc(tensor, mapping, now)
            for observer in self.observers:
                observer.on_tensor_allocated(tensor, mapping, now)

    # ------------------------------------------------------------ execution

    def step_process(self) -> Generator[float, None, StepResult]:
        """One training step as an engine process.

        Yields the intervals the clock must advance through (op execution
        times and policy stalls); the engine performs the advance, so the
        body never touches the clock directly.  The
        generator's return value is the step's :class:`StepResult`.
        """
        step = self._steps_run
        clock = self.clock
        policy = self.policy
        machine = self.machine
        allocator = self.allocator
        track = self.track

        machine.fast.reset_peak()
        machine.slow.reset_peak()
        promoted0 = machine.stats.counter("migration.promoted_bytes").value
        demoted0 = machine.stats.counter("migration.demoted_bytes").value

        result = StepResult(step=step, start_time=clock.now, end_time=clock.now)
        events = self._events
        # Precomputed per-op tables, the allocator's live mapping dict and
        # the per-access callables, hoisted out of the op loop.
        op_compute_times = self._op_compute_times
        op_step_tensors = self._op_step_tensors
        mapping_of = allocator.mapping_table().get
        alloc = allocator.alloc
        on_alloc = policy.on_alloc
        charge_access = policy.charge_access
        observers = self.observers
        ras = self._ras
        producer_of = self._producers.get
        recorders = self._recorders
        op_index = 0
        # Byte totals stay local: nothing reads the result before step end.
        bytes_fast = 0
        bytes_slow = 0
        if events is not None:
            events.begin("step", "step", track=track, step=step)
        for observer in observers:
            observer.on_step_start(step, clock.now)
        pre_stall = policy.on_step_start(step, clock.now)
        yield from self._charge_stall(result, pre_stall)
        step_ras = 0.0

        for layer in self.graph.layers:
            layer_start = clock.now
            if events is not None:
                events.begin(
                    "layer", "step", track=track, layer=layer.index, label=layer.name
                )
            # Per-layer timing components, mirrored onto the layer-end trace
            # event so attribution (repro.obs.critpath) can decompose a step
            # without re-deriving the timing model: the clock only advances
            # through op_time and _charge_stall, so within a layer span
            # duration == exec + stall + fault exactly.
            layer_compute = 0.0
            layer_mem = 0.0
            layer_exec = 0.0
            layer_stall = 0.0
            layer_fault = 0.0
            layer_ras = 0.0
            stall = policy.on_layer_start(layer, clock.now)
            yield from self._charge_stall(result, stall)
            layer_stall += stall

            for op in layer.ops:
                now = clock.now  # the clock moves only across a yield
                for tensor in op_step_tensors[op_index]:
                    if mapping_of(tensor.tid) is None:
                        mapping = alloc(tensor, now)
                        on_alloc(tensor, mapping, now)
                        for observer in observers:
                            observer.on_tensor_allocated(tensor, mapping, now)
                compute_time = op_compute_times[op_index]
                op_index += 1
                mem_time = 0.0
                stall_time = 0.0
                fault_time = 0.0
                ras_time = 0.0
                for access in op.accesses:
                    mapping = mapping_of(access.tensor.tid)
                    if mapping is None:
                        raise ExecutionError(
                            f"op {op.name!r} touches unallocated tensor "
                            f"{access.tensor.name!r}"
                        )
                    charge = charge_access(access.tensor, mapping, access, now)
                    if recorders:  # even an empty loop allocates an iterator
                        for record in recorders:
                            record(step, layer, op, access, charge, now)
                    mem_time += charge.mem_time
                    stall_time += charge.stall
                    fault_time += charge.fault
                    bytes_fast += charge.bytes_fast
                    bytes_slow += charge.bytes_slow
                    if ras is not None:
                        ras_time += ras.check_access(
                            access.tensor,
                            mapping,
                            now,
                            producer_of(access.tensor.tid),
                            allocator,
                        )
                op_exec = max(compute_time, mem_time)
                op_time = op_exec + stall_time + fault_time + ras_time
                result.compute_time += compute_time
                result.mem_time += mem_time
                result.stall_time += stall_time
                result.fault_time += fault_time
                layer_compute += compute_time
                layer_mem += mem_time
                layer_exec += op_exec
                layer_stall += stall_time
                layer_fault += fault_time
                layer_ras += ras_time
                yield op_time
                machine.migration.sync(clock.now)

            self._free_layer_tensors(layer)
            stall = policy.on_layer_end(layer, clock.now)
            yield from self._charge_stall(result, stall)
            layer_stall += stall
            if ras is not None:
                # Age memory by the layer's wall-span: errors accumulate in
                # proportion to residency time, and the patrol scrubber's
                # analytic cursor drains up to the layer boundary.
                ras.age(clock.now - layer_start, clock.now)
                step_ras += layer_ras
            for observer in observers:
                observer.on_layer_end(layer, clock.now)
            result.layer_spans.append((layer.index, layer_start, clock.now))
            if events is not None:
                # The ras component rides the layer-end event only when a
                # RAS engine is attached, keeping RAS-free traces (and their
                # golden digests) byte-identical to historical ones.
                ras_args = {} if ras is None else {"ras": layer_ras}
                events.end(
                    "layer",
                    "step",
                    track=track,
                    compute=layer_compute,
                    mem=layer_mem,
                    exec=layer_exec,
                    stall=layer_stall,
                    fault=layer_fault,
                    **ras_args,
                )

        post_stall = policy.on_step_end(step, clock.now)
        yield from self._charge_stall(result, post_stall)
        machine.migration.sync(clock.now)
        if machine.pressure is not None:
            # Step boundary: refresh watermark state and, for arena-style
            # allocators under sustained pressure, run bounded compaction.
            machine.pressure.end_step(allocator, clock.now)
            machine.migration.sync(clock.now)
        if events is not None:
            # Boundary stalls live outside any layer span; exporting them on
            # the step-end event is what lets attribution components sum to
            # the step duration exactly.
            events.end(
                "step",
                "step",
                track=track,
                step=step,
                pre_stall=pre_stall,
                post_stall=post_stall,
            )

        result.end_time = clock.now
        result.bytes_fast = bytes_fast
        result.bytes_slow = bytes_slow
        result.promoted_bytes = int(
            machine.stats.counter("migration.promoted_bytes").value - promoted0
        )
        result.demoted_bytes = int(
            machine.stats.counter("migration.demoted_bytes").value - demoted0
        )
        result.peak_fast = machine.fast.peak_used
        result.peak_slow = machine.slow.peak_used
        if ras is not None:
            result.extras["ras_time"] = step_ras
        if machine.migration.admission is not None:
            # Online feedback: each step's stall share is the live proxy
            # for the critical path's migration_stall attribution.
            machine.migration.admission.on_step(
                step, result.duration, result.stall_time
            )
        for observer in observers:
            observer.on_step_end(step, result)
        self._steps_run += 1
        return result

    def _ensure_engine(self) -> Engine:
        if self.engine is None:
            if self.machine.engine is not None:
                raise ExecutionError(
                    "machine is already driven by an engine; pass engine= to "
                    "Executor so co-scheduled workloads share one timeline"
                )
            self.engine = Engine(self.clock)
            self.machine.bind_engine(self.engine)
            self.policy.on_engine(self.engine)
        return self.engine

    def run_step(self) -> StepResult:
        """Execute one training step and return its breakdown.

        Compatibility shim over the event engine: the step body runs as an
        engine process, interleaved with channel-completion events, and
        events scheduled beyond the step's end (transfers still in flight)
        stay queued for the next step.  Times are byte-identical to the
        historical lockstep loop — the golden corpus pins this.
        """
        engine = self._ensure_engine()
        proc = engine.process(
            self.step_process(), name=f"{self.track}:step-{self._steps_run}"
        )
        return engine.run_until_complete(proc)

    def run_steps(self, count: int) -> List[StepResult]:
        if count <= 0:
            raise ValueError(f"step count must be positive, got {count!r}")
        return [self.run_step() for _ in range(count)]

    def teardown(self) -> None:
        """Release every page this executor's allocator still maps.

        Serving-scale churn needs jobs to *leave*: when a job completes,
        times out, or dies in a machine-failure episode, its preallocated
        tensors — and, after a mid-step interrupt, any step tensors still
        live — must hand their fast/slow capacity back to co-tenants.
        Frees go through :meth:`repro.mem.machine.Machine.unmap_run`, which
        settles in-flight migrations first, so the invariant auditor stays
        clean afterwards.

        Policy hooks are deliberately *not* invoked: the policy dies with
        the executor, and its bookkeeping (Sentinel phase state, interval
        plans) may be mid-step-inconsistent after an interrupt.  Idempotent;
        the executor must not run further steps after teardown.
        """
        self.allocator.release_all(self.clock.now)

    # -------------------------------------------------------------- helpers

    def _charge_stall(
        self, result: StepResult, stall: float
    ) -> Generator[float, None, None]:
        if stall < 0:
            raise ExecutionError(f"policy returned negative stall {stall!r}")
        if stall:
            result.stall_time += stall
            yield stall

    def _free_layer_tensors(self, layer: Layer) -> None:
        now = self.clock.now
        mapping_of = self.allocator.mapping_table().get
        observers = self.observers
        on_free = self.policy.on_free
        free = self.allocator.free
        for tensor in self._frees_by_layer.get(layer.index, ()):
            mapping = mapping_of(tensor.tid)
            if mapping is None:
                continue  # tensor skipped this step (control flow)
            for observer in observers:
                observer.on_tensor_freed(tensor, mapping, now)
            on_free(tensor, mapping, now)
            free(tensor, now)
