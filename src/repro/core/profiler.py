"""Dynamic tensor-level profiling (paper §III-A, §IV-B).

The mechanism: during the single profiling step every tensor is allocated
page-aligned (one tensor per page run), every PTE is poisoned, and each
main-memory access therefore takes a protection fault that increments the
run's counters.  Because the runtime knows where layers begin and end
(``add_layer()`` in the paper), a :class:`ProfileCollector` snapshots the
counters at each layer boundary and attributes access counts to layers —
the OS/runtime coordination that makes the profile *tensor-level* and
*layer-attributed* rather than page-level and flat.

:class:`~repro.core.runtime.SentinelPolicy` runs that step in-band, at step
11 of a live training run, with the collector embedded.
:class:`DynamicProfiler` is the one-call form: it runs the same policy's
profiling step on a fresh machine and returns the
:class:`~repro.core.profile.Profile` (plus overhead accounting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.profile import Profile, TensorProfile
from repro.dnn.alloc import TensorMapping
from repro.dnn.executor import Executor, StepResult
from repro.dnn.graph import Graph
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
        """Run Sentinel's profiling step and build the profile.

        One step of :class:`~repro.core.runtime.SentinelPolicy` with no
        warm-up: page-aligned allocation, every PTE poisoned, and
        everything read in place on slow memory (the paper's profiling
        phase never consumes fast memory, on any platform).
        """
        # The runtime imports this module for ProfileCollector.
        from repro.core.runtime import SentinelConfig, SentinelPolicy

        machine = Machine(self.platform)
        policy = SentinelPolicy(SentinelConfig(warmup_steps=0))
        result = Executor(graph, machine, policy).run_step()
        assert policy._collector is not None
        profile = policy._collector.finalize(graph, machine, result)
        return ProfilingRun(profile=profile, step_result=result)
