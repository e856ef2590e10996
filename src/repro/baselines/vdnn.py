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

from typing import Dict, List, Set

from repro.dnn.alloc import TensorMapping
from repro.dnn.graph import Graph, Layer
from repro.dnn.policy import PlacementPolicy, fits_fast
from repro.dnn.tensor import Tensor, TensorKind
from repro.mem.devices import DeviceKind
from repro.mem.machine import Machine
from repro.mem.page import PageTableEntry


class UnsupportedModelError(RuntimeError):
    """The model's structure is outside a baseline's domain knowledge."""


class VDNNPolicy(PlacementPolicy):
    """Offload conv-layer inputs after forward use; prefetch one layer early."""

    name = "vdnn"
    requires_residency = True

    def __init__(self) -> None:
        super().__init__()
        self._mappings: Dict[int, TensorMapping] = {}
        #: layer index -> tids to offload at that layer's end (forward)
        self._offload_at: Dict[int, List[int]] = {}
        #: layer index -> tids to prefetch at that layer's start (backward)
        self._prefetch_at: Dict[int, List[int]] = {}

    def bind(self, machine: Machine, graph: Graph) -> None:
        super().bind(machine, graph)
        family = str(graph.metadata.get("model_family", ""))
        if graph.metadata.get("recurrent") or family in ("bert", "lstm"):
            raise UnsupportedModelError(
                f"vDNN only supports feedforward CNNs; {graph.name!r} "
                "(recurrent or attention-based) is outside its domain "
                "knowledge (paper Table V)"
            )
        from repro.baselines.common import forward_backward_spans, select_for_pressure

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

    # ------------------------------------------------------------ placement

    def place(self, tensor: Tensor, now: float) -> DeviceKind:
        assert self.machine is not None
        # Everything lives on the GPU if it fits; only offloaded feature
        # maps ever leave.
        if fits_fast(self.machine, tensor.nbytes):
            return DeviceKind.FAST
        return DeviceKind.SLOW

    def on_alloc(self, tensor: Tensor, mapping: TensorMapping, now: float) -> None:
        self._mappings[tensor.tid] = mapping

    def on_free(self, tensor: Tensor, mapping: TensorMapping, now: float) -> None:
        self._mappings.pop(tensor.tid, None)

    # -------------------------------------------------------------- schedule

    def on_layer_start(self, layer: Layer, now: float) -> float:
        runs = self._runs(self._prefetch_at.get(layer.index, ()), DeviceKind.SLOW)
        if runs:
            assert self.machine is not None
            self.machine.migration.promote_each(runs, now, tag="vdnn-prefetch")
        return 0.0

    def on_layer_end(self, layer: Layer, now: float) -> float:
        runs = self._runs(self._offload_at.get(layer.index, ()), DeviceKind.FAST)
        if runs:
            assert self.machine is not None
            self.machine.migration.demote_each(runs, now, tag="vdnn-offload")
        return 0.0

    def _runs(self, tids, device: DeviceKind) -> List[PageTableEntry]:
        runs: List[PageTableEntry] = []
        seen: Set[int] = set()
        for tid in tids:
            mapping = self._mappings.get(tid)
            if mapping is None:
                continue
            for share in mapping.shares:
                run = share.run
                if run.vpn in seen or run.in_flight or run.pinned:
                    continue
                seen.add(run.vpn)
                if run.device is device:
                    runs.append(run)
        return runs

    # ------------------------------------------------------------ residency

    def evict_for(self, nbytes: int, now: float) -> float:
        """vDNN has no general eviction: only offloadable feature maps may
        leave the GPU.  Demote any fast-resident offload targets; if that is
        not enough the model simply does not fit (Table V's batch limit)."""
        from repro.core.gpu import evict_coldest

        assert self.machine is not None
        offloadable: List[PageTableEntry] = []
        for tids in self._offload_at.values():
            offloadable.extend(self._runs(tids, DeviceKind.FAST))
        return evict_coldest(self, nbytes, now, offloadable)
