"""Capuchin: tensor swap with recomputation fallback on GPU [9].

Capuchin observes the access pattern dynamically (a measured step, like
Sentinel) and then, per saved tensor, picks the cheaper of:

* **swap** — offload after the last forward use, prefetch before the first
  backward use (hidden if the intervening layers are long enough);
* **recompute** — discard the tensor after forward use and recompute it
  from its inputs when the backward pass needs it, paying compute instead
  of transfer.

The paper's measurement: recomputation costs Capuchin ~11% of step time —
time Sentinel does not spend, because co-allocation and interval-planned
prefetching keep its transfers hidden.  We reproduce the decision rule and
charge recomputation as compute stall via the migration engine's
discard/materialize primitives (no bandwidth is spent on either side).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.baselines.common import (
    SwapSchedulePolicy,
    forward_backward_spans,
    select_for_pressure,
)
from repro.core.profiler import estimate_layer_fast_times
from repro.dnn.alloc import TensorMapping
from repro.dnn.graph import Graph, Layer
from repro.dnn.policy import AccessCharge
from repro.dnn.ops import TensorAccess
from repro.dnn.tensor import Tensor
from repro.mem.devices import DeviceKind
from repro.mem.machine import Machine
from repro.mem.page import PageTableEntry


@dataclass(frozen=True)
class _Decision:
    tid: int
    action: str  # "swap" | "recompute"
    offload_layer: int
    use_layer: int
    recompute_cost: float


class CapuchinPolicy(SwapSchedulePolicy):
    """Swap/recompute hybrid with dynamically profiled decisions.

    Shares the schedule executor's placement and mapping table, but runs
    its own layer hooks: its schedule holds decisions, not tensor ids, and
    a layer's end interleaves discards with swap demotions.
    """

    name = "capuchin"

    #: recomputing a tensor re-runs its producing layer's forward work
    RECOMPUTE_FRACTION = 1.0

    #: share of managed tensors with recompute-feasible (cheap,
    #: single-input) producers — BN/activation saves, not conv outputs
    RECOMPUTE_ELIGIBLE_FRACTION = 0.35

    def __init__(self) -> None:
        super().__init__()
        self._decisions: Dict[int, _Decision] = {}
        self._offload_at: Dict[int, List[_Decision]] = {}
        self._prefetch_at: Dict[int, List[_Decision]] = {}
        self._recomputed_this_step: Set[int] = set()
        self.recompute_time = 0.0

    def bind(self, machine: Machine, graph: Graph) -> None:
        super().bind(machine, graph)
        self._decisions.clear()
        self._offload_at.clear()
        self._prefetch_at.clear()
        layer_times = estimate_layer_fast_times(graph, machine)
        bandwidth = machine.platform.promote_bandwidth
        candidates = [
            (tensor, offload_layer, use_layer)
            for tensor, offload_layer, use_layer in forward_backward_spans(graph)
            if use_layer > offload_layer + 1
        ]
        # Capuchin's measured pass manages only enough tensors to relieve
        # the observed pressure, preferring the widest forward->backward
        # gaps (cheapest to hide, first to be chosen in the paper).
        chosen = select_for_pressure(
            candidates,
            graph.peak_memory_bytes(),
            machine.fast.capacity,
            size_of=lambda c: c[0].nbytes,
            priority=lambda c: -(c[2] - c[1]) * c[0].nbytes,
        )
        # Recomputation is only *feasible* for tensors whose producers are
        # cheap, single-input ops (BN/activation outputs); convolution and
        # matmul outputs would drag their whole input chain back in.  In
        # our graphs those are the auxiliary saved intermediates, a bounded
        # share of the candidates.
        recompute_budget = int(len(chosen) * self.RECOMPUTE_ELIGIBLE_FRACTION)
        recomputed = 0
        for tensor, offload_layer, use_layer in chosen:
            transfer = tensor.nbytes / bandwidth
            # Prefetch is issued one layer ahead (Capuchin's access-pattern
            # trigger); what the preceding layer cannot hide is exposed.
            hidden = layer_times[use_layer - 1]
            swap_exposure = max(0.0, transfer - hidden)
            recompute_cost = layer_times[tensor.alloc_layer] * self.RECOMPUTE_FRACTION
            action = "swap" if swap_exposure <= recompute_cost else "recompute"
            if action == "recompute":
                if recomputed >= recompute_budget:
                    action = "swap"
                else:
                    recomputed += 1
            decision = _Decision(
                tid=tensor.tid,
                action=action,
                offload_layer=offload_layer,
                use_layer=use_layer,
                recompute_cost=recompute_cost,
            )
            self._decisions[tensor.tid] = decision
            self._offload_at.setdefault(offload_layer, []).append(decision)
            self._prefetch_at.setdefault(max(0, use_layer - 1), []).append(decision)

    # ------------------------------------------------------------ execution

    def on_step_start(self, step: int, now: float) -> float:
        self._recomputed_this_step.clear()
        return 0.0

    def on_layer_end(self, layer: Layer, now: float) -> float:
        machine = self.machine
        assert machine is not None
        swap_runs: List[PageTableEntry] = []
        for decision in self._offload_at.get(layer.index, ()):
            mapping = self._mappings.get(decision.tid)
            if mapping is None:
                continue
            for share in mapping.shares:
                run = share.run
                if run.in_flight or run.pinned:
                    continue
                if run.device is not DeviceKind.FAST:
                    continue
                if decision.action == "swap":
                    swap_runs.append(run)
                else:
                    machine.migration.discard(run, now)
        if swap_runs:
            machine.migration.demote_each(swap_runs, now, tag="capuchin-swap")
        return 0.0

    def on_layer_start(self, layer: Layer, now: float) -> float:
        machine = self.machine
        assert machine is not None
        runs: List[PageTableEntry] = []
        for decision in self._prefetch_at.get(layer.index, ()):
            if decision.action != "swap":
                continue
            mapping = self._mappings.get(decision.tid)
            if mapping is None:
                continue
            runs.extend(
                share.run
                for share in mapping.shares
                if share.run.device is DeviceKind.SLOW
                and not share.run.in_flight
                and not share.run.pinned
            )
        if runs:
            machine.migration.promote_each(runs, now, tag="capuchin-prefetch")
        return 0.0

    # --------------------------------------------------------- recompute hit

    def charge_access(
        self, tensor: Tensor, mapping: TensorMapping, access: TensorAccess, now: float
    ) -> AccessCharge:
        decision = self._decisions.get(tensor.tid)
        if (
            decision is not None
            and decision.action == "recompute"
            and tensor.tid not in self._recomputed_this_step
            and self._is_discarded(mapping)
        ):
            stall = self._recompute(decision, mapping, now)
            charge = super().charge_access(tensor, mapping, access, now + stall)
            charge.stall += stall
            return charge
        return super().charge_access(tensor, mapping, access, now)

    @staticmethod
    def _is_discarded(mapping: TensorMapping) -> bool:
        return any(
            share.run.device is DeviceKind.SLOW and not share.run.in_flight
            for share in mapping.shares
        )

    def _recompute(
        self, decision: _Decision, mapping: TensorMapping, now: float
    ) -> float:
        """Materialize a discarded tensor by recomputation (compute stall)."""
        machine = self.machine
        assert machine is not None
        stall = 0.0
        for share in mapping.shares:
            run = share.run
            if run.device is not DeviceKind.SLOW or run.in_flight:
                continue
            if not machine.migration.materialize(run, now + stall):
                stall += self.evict_for(run.npages * machine.page_size, now + stall)
                if not machine.migration.materialize(run, now + stall):
                    # Out of options: fall back to a regular (priced) promote
                    # via the residency path later.
                    continue
        stall += decision.recompute_cost
        self.recompute_time += decision.recompute_cost
        self._recomputed_this_step.add(decision.tid)
        return stall
