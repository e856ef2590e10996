"""AutoTM: offline placement planning with exposed movement [7].

AutoTM formulates tensor placement/movement as an integer linear program
over a *static* profile (operation times collected at compile time) and
executes the resulting schedule.  We implement the standard LP-relaxation
view of that program: per layer, choose the fast-resident tensor set by
greedy benefit density (benefit per byte), which is the fractional-knapsack
optimum and what ILP rounding converges to for this structure; movement
between consecutive layers follows the plan.

The two behaviours the paper criticizes are reproduced faithfully:

* on CPU, **all movement is exposed** — AutoTM's TensorFlow port moves
  tensors synchronously at layer boundaries (§VII-B);
* newly produced outputs are placed per the static plan (slow unless the
  plan wants them), which hurts when outputs are large (§VII-B).

The GPU variant (``exposed=False``) issues the same plan's movements
asynchronously, as the paper's §VII-C implementation does; misses then
stall at access time instead.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.baselines.common import (
    SwapSchedulePolicy,
    forward_backward_spans,
    select_for_pressure,
)
from repro.core.profiler import estimate_layer_fast_times
from repro.dnn.alloc import TensorMapping
from repro.dnn.graph import Graph, Layer
from repro.dnn.policy import fits_fast
from repro.dnn.tensor import Tensor
from repro.mem.devices import DeviceKind
from repro.mem.machine import Machine
from repro.sim.sums import ordered_sum

#: Fraction of fast memory the plan may fill; the rest absorbs temporaries.
PLAN_CAPACITY_FRACTION = 0.7


def plan_fast_sets(graph: Graph, capacity: int) -> List[Set[int]]:
    """Per-layer fast-resident tensor sets via greedy benefit density.

    Benefit of keeping tensor ``t`` fast during layer ``l`` is its traffic
    there (touches x bytes); density is benefit per byte, i.e. simply the
    touch count — so the greedy order is hottest-in-layer first, subject to
    the capacity bound.
    """
    budget = int(capacity * PLAN_CAPACITY_FRACTION)
    plans: List[Set[int]] = []
    for layer in graph.layers:
        candidates = []
        for tensor in layer.tensors():
            if tensor.short_lived:
                continue  # temps live outside the plan
            touches = tensor.layer_touches.get(layer.index, 0)
            if touches > 0:
                candidates.append((touches, tensor.tid, tensor.nbytes))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        chosen: Set[int] = set()
        used = 0
        for touches, tid, nbytes in candidates:
            if used + nbytes <= budget:
                chosen.add(tid)
                used += nbytes
        plans.append(chosen)
    return plans


class AutoTMPolicy(SwapSchedulePolicy):
    """Executes the offline placement plan.

    The GPU port runs its gap schedule on the shared swap-schedule
    executor; the exposed CPU port moves each layer's plan synchronously.
    """

    name = "autotm"
    requires_residency = None
    prefetch_tag = "autotm-prefetch"
    offload_tag = "autotm-offload"

    def __init__(self, exposed: Optional[bool] = None) -> None:
        super().__init__()
        #: None = exposed on CPU, asynchronous on GPU (paper's two ports)
        self._exposed_override = exposed
        self.exposed = True
        self._plans: List[Set[int]] = []

    def bind(self, machine: Machine, graph: Graph) -> None:
        super().bind(machine, graph)
        self.exposed = (
            self._exposed_override
            if self._exposed_override is not None
            else not self.residency
        )
        self._plans = plan_fast_sets(graph, machine.fast.capacity)
        self._offload_at.clear()
        self._prefetch_at.clear()
        if not self.exposed:
            self._build_gap_schedule(machine, graph)

    def _build_gap_schedule(self, machine: Machine, graph: Graph) -> None:
        """GPU schedule: the ILP effectively offloads every forward-saved
        tensor across its forward->backward gap and starts each fetch early
        enough to hide the transfer behind computation — the lead is the
        transfer time divided by the mean layer time."""
        layer_times = estimate_layer_fast_times(graph, machine)
        mean_layer = max(1e-9, ordered_sum(layer_times) / len(layer_times))
        bandwidth = machine.platform.promote_bandwidth
        candidates = [
            (tensor, offload_layer, use_layer)
            for tensor, offload_layer, use_layer in forward_backward_spans(graph)
            if use_layer > offload_layer + 1
        ]
        # The ILP offloads only what the deficit requires, preferring the
        # savings that are cheapest to schedule (largest tensors first).
        chosen = select_for_pressure(
            candidates,
            graph.peak_memory_bytes(),
            machine.fast.capacity,
            size_of=lambda c: c[0].nbytes,
        )
        for tensor, offload_layer, use_layer in chosen:
            transfer = tensor.nbytes / bandwidth
            lead = min(10, 1 + int(transfer / mean_layer + 1))
            self._offload_at.setdefault(offload_layer, []).append(tensor.tid)
            prefetch_layer = max(0, use_layer - lead)
            self._prefetch_at.setdefault(prefetch_layer, []).append(tensor.tid)

    # ------------------------------------------------------------ placement

    def place(self, tensor: Tensor, now: float) -> DeviceKind:
        assert self.machine is not None
        if tensor.short_lived:
            return (
                DeviceKind.FAST
                if fits_fast(self.machine, tensor.nbytes)
                else DeviceKind.SLOW
            )
        wanted = (
            not tensor.preallocated
            and tensor.alloc_layer < len(self._plans)
            and tensor.tid in self._plans[tensor.alloc_layer]
        )
        if wanted and fits_fast(self.machine, tensor.nbytes):
            return DeviceKind.FAST
        return DeviceKind.SLOW

    def on_alloc(self, tensor: Tensor, mapping: TensorMapping, now: float) -> None:
        # The base hook's no-op, kept on this class only because the
        # benchmark's span table (bench/spans.py) names it as a boundary.
        pass

    def on_free(self, tensor: Tensor, mapping: TensorMapping, now: float) -> None:
        # The base hook's no-op, kept for the span table like on_alloc.
        pass

    # -------------------------------------------------------------- schedule

    def on_layer_start(self, layer: Layer, now: float) -> float:
        if not self.exposed:
            return super().on_layer_start(layer, now)
        if layer.index >= len(self._plans):
            return 0.0
        machine = self.machine
        assert machine is not None
        wanted = self._plans[layer.index]
        mappings = self._mappings
        demote_runs = self._runs(
            [tid for tid in mappings if tid not in wanted], DeviceKind.FAST
        )
        promote_runs = self._runs(
            [tid for tid in wanted if tid in mappings], DeviceKind.SLOW
        )
        finish = now
        if demote_runs:
            transfer, _ = machine.migration.demote(demote_runs, now, tag="autotm")
            if transfer is not None:
                finish = max(finish, transfer.finish)
        if promote_runs:
            # Wait for evictions to free space (synchronous movement).
            machine.migration.sync(finish)
            transfer, _, _ = machine.migration.promote(
                promote_runs, finish, tag="autotm"
            )
            if transfer is not None:
                finish = max(finish, transfer.finish)
        if finish > now:
            machine.migration.sync(finish)
            return finish - now
        return 0.0

    def on_layer_end(self, layer: Layer, now: float) -> float:
        if self.exposed:
            return 0.0
        return super().on_layer_end(layer, now)
