"""Unified Memory: on-demand page migration on GPU fault (§VII-C).

CUDA UM moves pages from host to device when a kernel faults on them and
evicts least-recently-used pages when device memory fills.  No profiling,
no prefetching: every miss's transfer sits on the kernel's critical path,
which is why UM is the normalization floor of Figure 12.
"""

from __future__ import annotations

from typing import Dict, List

from repro.dnn.alloc import TensorMapping
from repro.dnn.ops import TensorAccess
from repro.dnn.policy import AccessCharge, PlacementPolicy, evict_coldest
from repro.dnn.tensor import Tensor
from repro.mem.devices import DeviceKind
from repro.mem.page import PageTableEntry


class UnifiedMemoryPolicy(PlacementPolicy):
    """On-demand residency with LRU eviction."""

    name = "unified-memory"
    requires_residency = True

    #: GPU page faults are served in ~64 KiB groups, each with a host
    #: round-trip; this is what keeps demand paging far below PCIe line rate
    FAULT_GROUP_BYTES = 64 * 1024
    FAULT_SERVICE_TIME = 25e-6

    def __init__(self) -> None:
        super().__init__()
        self._last_access: Dict[int, float] = {}

    def ensure_resident(self, run, now: float) -> float:
        on_slow = run.device is DeviceKind.SLOW and not run.in_flight
        stall = super().ensure_resident(run, now)
        if on_slow and run.initialized:
            # Fault-group servicing overhead on top of the raw transfer.
            groups = -(-run.npages * self.machine.page_size // self.FAULT_GROUP_BYTES)
            stall += groups * self.FAULT_SERVICE_TIME
        return stall

    def place(self, tensor: Tensor, now: float) -> DeviceKind:
        # UM backs fresh allocations with host memory until first GPU touch.
        return DeviceKind.SLOW

    def charge_access(
        self, tensor: Tensor, mapping: TensorMapping, access: TensorAccess, now: float
    ) -> AccessCharge:
        charge = super().charge_access(tensor, mapping, access, now)
        for share in mapping.shares:
            self._last_access[share.run.vpn] = now
        return charge

    def evict_for(self, nbytes: int, now: float) -> float:
        assert self.machine is not None
        resident = self.machine.page_table.runs_on(DeviceKind.FAST)
        ranked: List[PageTableEntry] = sorted(
            resident, key=lambda run: self._last_access.get(run.vpn, -1.0)
        )
        return evict_coldest(self, nbytes, now, ranked)

    def on_free(self, tensor: Tensor, mapping: TensorMapping, now: float) -> None:
        for share in mapping.shares:
            self._last_access.pop(share.run.vpn, None)
