"""Dynamic tensor-level profiling (paper §III-A, §IV-B).

The mechanism: during the single profiling step every tensor is allocated
page-aligned (one tensor per page run), every PTE is poisoned, and each
main-memory access therefore takes a protection fault that increments the
run's counters.  Because the runtime knows where layers begin and end
(``add_layer()`` in the paper), a :class:`ProfileCollector` snapshots the
counters at each layer boundary and attributes access counts to layers —
the OS/runtime coordination that makes the profile *tensor-level* and
*layer-attributed* rather than page-level and flat.

Two entry points:

* :class:`ProfilingObserver` — an executor observer wrapping a collector,
  used by the characterization experiments.
* :class:`DynamicProfiler` — one-call orchestration: builds a fresh machine,
  runs one poisoned, page-aligned step of a graph, returns the
  :class:`~repro.core.profile.Profile` (plus overhead accounting).
  :class:`~repro.core.runtime.SentinelPolicy` embeds the same collector to
  profile in-place at step 11 of a live training run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.profile import Profile, TensorProfile
from repro.dnn.alloc import PageAlignedAllocator, TensorMapping
from repro.dnn.executor import Executor, StepObserver, StepResult
from repro.dnn.graph import Graph, Layer
from repro.dnn.policy import PlacementPolicy
from repro.dnn.tensor import Tensor
from repro.mem.machine import Machine
from repro.mem.platforms import Platform


def estimate_layer_fast_times(graph: Graph, machine: Machine) -> List[float]:
    """Per-layer execution time with every operand in fast memory.

    The roofline the executor applies, priced at fast-tier bandwidth.  This
    is the ``T(MIL)`` building block of the interval performance model and
    needs no extra training steps — exactly why the paper's exploration of
    interval lengths is cheap.
    """
    times: List[float] = []
    throughput = machine.platform.compute_throughput
    fast = machine.fast
    for layer in graph.layers:
        total = 0.0
        for op in layer.ops:
            compute = op.flops / throughput
            mem = 0.0
            for access in op.accesses:
                mem += access.passes * fast.access_time(
                    access.nbytes, access.is_write
                )
            total += max(compute, mem)
        times.append(total)
    return times


def layer_short_lived_bytes(graph: Graph) -> List[int]:
    """Per-layer bytes of live short-lived tensors (the RS building block)."""
    sizes = [0] * graph.num_layers
    for tensor in graph.step_tensors():
        if tensor.short_lived:
            sizes[tensor.alloc_layer] += tensor.nbytes
    return sizes


def page_aligned_peak_bytes(graph: Graph, page_size: int) -> int:
    """Peak footprint if every tensor were padded to whole pages.

    The profiling phase's memory overhead (paper: <= ~2.4%, because tensors
    larger than a page dominate).
    """
    def padded(nbytes: int) -> int:
        return page_size * math.ceil(nbytes / page_size)

    prealloc = sum(padded(t.nbytes) for t in graph.preallocated())
    peak = prealloc
    for layer_index in range(graph.num_layers):
        live = prealloc
        for tensor in graph.step_tensors():
            assert tensor.free_layer is not None
            if tensor.alloc_layer <= layer_index <= tensor.free_layer:
                live += padded(tensor.nbytes)
        peak = max(peak, live)
    return peak


class ProfileCollector:
    """Accumulates per-tensor, per-layer access counts from run counters.

    Requires the profiling step to run on a page-aligned allocator so each
    run's counters belong to exactly one tensor; the collector verifies
    this via the one-share-per-run structure of the mappings it receives.
    """

    def __init__(self) -> None:
        self._live: Dict[int, TensorMapping] = {}
        self._counted: Dict[int, int] = {}
        self._pages: Dict[int, int] = {}
        self._records: Dict[int, TensorProfile] = {}
        self._settled: Set[int] = set()

    # ------------------------------------------------------------- plumbing

    def on_alloc(self, tensor: Tensor, mapping: TensorMapping) -> None:
        self._live[tensor.tid] = mapping
        self._counted[tensor.tid] = self._run_total(mapping)
        self._pages[tensor.tid] = max(
            1, sum(share.run.npages for share in mapping.shares)
        )
        self._records[tensor.tid] = TensorProfile(
            tid=tensor.tid,
            name=tensor.name,
            nbytes=tensor.nbytes,
            alloc_layer=tensor.alloc_layer,
            free_layer=tensor.free_layer,
            preallocated=tensor.preallocated,
        )

    @staticmethod
    def _run_total(mapping: TensorMapping) -> int:
        return sum(share.run.accesses for share in mapping.shares)

    def _settle(self, tid: int, layer_index: int) -> None:
        mapping = self._live.get(tid)
        if mapping is None:
            return
        current = self._run_total(mapping)
        delta = current - self._counted[tid]
        if delta > 0:
            # Fault counters tick once per page per pass; normalize by the
            # tensor's page count so "accesses" means streaming passes over
            # the tensor — the unit the paper compares hotness in (a 100 MB
            # tensor read once is colder than a 4-byte counter read 200
            # times, even though the former takes more faults).
            passes = max(1, round(delta / self._pages[tid]))
            touches = self._records[tid].touches_by_layer
            touches[layer_index] = touches.get(layer_index, 0) + passes
            self._counted[tid] = current

    def on_free(self, tensor: Tensor, mapping: TensorMapping, layer_index: int) -> None:
        """Read a dying tensor's counters before its runs are unmapped."""
        self._settle(tensor.tid, layer_index)
        self._live.pop(tensor.tid, None)
        self._counted.pop(tensor.tid, None)
        self._pages.pop(tensor.tid, None)
        self._settled.add(tensor.tid)

    def on_layer_end(self, layer_index: int) -> None:
        """Snapshot all live counters at a layer boundary (``add_layer()``)."""
        for tid in list(self._live):
            self._settle(tid, layer_index)

    # --------------------------------------------------------------- output

    def finalize(
        self,
        graph: Graph,
        machine: Machine,
        profiling_result: Optional[StepResult] = None,
    ) -> Profile:
        """Assemble the :class:`Profile` after the profiling step."""
        # Tensors still live (preallocated) get their final settle at the
        # last layer; on_layer_end already handled it if called, but be
        # safe for direct use.
        last_layer = graph.num_layers - 1
        for tid in list(self._live):
            self._settle(tid, last_layer)
        page_size = machine.page_size
        return Profile(
            graph_name=graph.name,
            signature=graph.signature(),
            num_layers=graph.num_layers,
            page_size=page_size,
            tensors=dict(self._records),
            layer_fast_times=estimate_layer_fast_times(graph, machine),
            layer_short_lived_bytes=layer_short_lived_bytes(graph),
            profiling_step_time=(
                profiling_result.duration if profiling_result else 0.0
            ),
            fault_count=machine.fault_handler.faults_taken,
            profiled_peak_bytes=page_aligned_peak_bytes(graph, page_size),
            packed_peak_bytes=graph.peak_memory_bytes(),
        )


class ProfilingObserver(StepObserver):
    """Executor observer driving a :class:`ProfileCollector`.

    Poisons the page table at step start so every access is counted, and
    unpoisons at step end so subsequent steps run at full speed.
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.collector = ProfileCollector()
        self._current_layer = 0

    def on_step_start(self, step: int, now: float) -> None:
        self.machine.page_table.poison_all()
        self.machine.tlb.flush_all()
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.instant("poison-all", "fault", ts=now, track="faults", step=step)

    def on_tensor_allocated(
        self, tensor: Tensor, mapping: TensorMapping, now: float
    ) -> None:
        for share in mapping.shares:
            share.run.poisoned = True
        self.machine.tlb.flush_all()
        self.collector.on_alloc(tensor, mapping)

    def on_tensor_freed(
        self, tensor: Tensor, mapping: TensorMapping, now: float
    ) -> None:
        self.collector.on_free(tensor, mapping, self._current_layer)

    def on_layer_end(self, layer: Layer, now: float) -> None:
        self.collector.on_layer_end(layer.index)
        self._current_layer = layer.index + 1

    def on_step_end(self, step: int, result: StepResult) -> None:
        self.machine.page_table.unpoison_all()
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.instant(
                "unpoison-all",
                "fault",
                ts=result.end_time,
                track="faults",
                step=step,
            )


@dataclass
class ProfilingRun:
    """A profile plus the accounting of the step that produced it."""

    profile: Profile
    step_result: StepResult


class DynamicProfiler:
    """One-call dynamic profiling of a graph on a fresh, fault-free machine.

    Args:
        platform: platform to instantiate the machine from.

    Re-profiling after lossy samples under fault injection happens in-band,
    in :class:`~repro.core.runtime.SentinelPolicy`.
    """

    def __init__(self, platform: Platform) -> None:
        self.platform = platform

    def run(self, graph: Graph) -> ProfilingRun:
        """Execute one poisoned, page-aligned step and build the profile.

        Everything is placed on slow memory (the paper's profiling phase
        runs entirely on slow memory and never consumes fast memory).
        """
        machine = Machine(self.platform)
        policy = PlacementPolicy()  # place() defaults to SLOW everywhere
        policy.bind(machine, graph)
        policy.residency = False  # profiling reads in place, even on GPU HM
        allocator = PageAlignedAllocator(machine, policy.place)
        observer = ProfilingObserver(machine)
        executor = Executor(
            graph, machine, policy, allocator=allocator, observers=[observer]
        )
        result = executor.run_step()
        profile = observer.collector.finalize(graph, machine, result)
        return ProfilingRun(profile=profile, step_result=result)
