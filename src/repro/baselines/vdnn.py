"""vDNN: convolution-input offloading on GPU [6].

vDNN's domain knowledge is narrow by design: after a convolution layer's
forward pass it offloads that layer's *input feature map* to host memory
and prefetches it back one layer before the matching backward layer needs
it.  Everything else — weights, other activations, workspaces — must stay
on the GPU.  Two consequences the paper measures:

* it cannot express recurrent graphs (LSTM, BERT's shared-weight
  recurrence over tokens in their framing) — construction fails loudly
  (Table V's "x" entries);
* its prefetch ignores layer-time imbalance, so transfers are frequently
  exposed (Figure 13 shows ~3x more exposed migration than Sentinel-GPU).
"""

from __future__ import annotations

from typing import List

from repro.baselines.common import (
    SwapSchedulePolicy,
    forward_backward_spans,
    select_for_pressure,
)
from repro.dnn.graph import Graph
from repro.dnn.policy import evict_coldest
from repro.dnn.tensor import TensorKind
from repro.mem.devices import DeviceKind
from repro.mem.machine import Machine
from repro.mem.page import PageTableEntry


class UnsupportedModelError(RuntimeError):
    """The model's structure is outside a baseline's domain knowledge."""


class VDNNPolicy(SwapSchedulePolicy):
    """Offload conv-layer inputs after forward use; prefetch one layer early.

    Everything lives on the GPU if it fits; only offloaded feature maps
    ever leave.
    """

    name = "vdnn"
    prefetch_tag = "vdnn-prefetch"
    offload_tag = "vdnn-offload"

    def bind(self, machine: Machine, graph: Graph) -> None:
        super().bind(machine, graph)
        family = str(graph.metadata.get("model_family", ""))
        if graph.metadata.get("recurrent") or family in ("bert", "lstm"):
            raise UnsupportedModelError(
                f"vDNN only supports feedforward CNNs; {graph.name!r} "
                "(recurrent or attention-based) is outside its domain "
                "knowledge (paper Table V)"
            )
        self._offload_at.clear()
        self._prefetch_at.clear()
        # vDNN targets the input feature maps of convolution layers: in our
        # graphs those are the ACTIVATION tensors saved from a forward layer
        # and consumed by exactly one backward layer.  vDNN_dyn offloads
        # only under pressure, and only as much as the deficit requires.
        candidates = [
            (tensor, offload_layer, use_layer)
            for tensor, offload_layer, use_layer in forward_backward_spans(graph)
            if tensor.kind is TensorKind.ACTIVATION and tensor.free_layer is not None
        ]
        chosen = select_for_pressure(
            candidates,
            graph.peak_memory_bytes(),
            machine.fast.capacity,
            size_of=lambda c: c[0].nbytes,
        )
        for tensor, offload_layer, use_layer in chosen:
            self._offload_at.setdefault(offload_layer, []).append(tensor.tid)
            self._prefetch_at.setdefault(max(0, use_layer - 1), []).append(tensor.tid)

    # ------------------------------------------------------------ residency

    def evict_for(self, nbytes: int, now: float) -> float:
        """vDNN has no general eviction: only offloadable feature maps may
        leave the GPU.  Demote any fast-resident offload targets; if that is
        not enough the model simply does not fit (Table V's batch limit)."""
        offloadable: List[PageTableEntry] = []
        for tids in self._offload_at.values():
            offloadable.extend(self._runs(tids, DeviceKind.FAST))
        return evict_coldest(self, nbytes, now, offloadable)
