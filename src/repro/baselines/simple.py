"""The non-adaptive baselines: bounds, first-touch NUMA, and Memory Mode."""

from __future__ import annotations

from repro.dnn.alloc import Allocator, TensorMapping
from repro.dnn.arena import ArenaAllocator
from repro.dnn.ops import TensorAccess
from repro.dnn.policy import AccessCharge, PlacementPolicy
from repro.dnn.tensor import Tensor
from repro.mem.devices import DeviceKind


class SlowOnlyPolicy(PlacementPolicy):
    """Everything on the slow tier — the paper's normalization baseline."""

    name = "slow-only"
    requires_residency = False

    def place(self, tensor: Tensor, now: float) -> DeviceKind:
        return DeviceKind.SLOW


class FastOnlyPolicy(PlacementPolicy):
    """Everything on the fast tier — the performance ceiling.

    Requires the fast tier to hold the model's peak footprint; use an
    unconstrained machine (full DRAM) for this bound.
    """

    name = "fast-only"
    requires_residency = False

    def place(self, tensor: Tensor, now: float) -> DeviceKind:
        return DeviceKind.FAST


class FirstTouchNUMAPolicy(PlacementPolicy):
    """Linux default on the two-node Optane platform (§VII-B).

    The first touch lands a page on the toucher's node — the DRAM node,
    until DRAM fills, after which everything spills to PMM and *stays
    there*: there is no migration to correct the placement, which is why
    first-touch collapses once the working set outgrows DRAM (Figure 8).
    A slab that fits on neither node fails in PMM's allocation.
    """

    name = "first-touch"
    requires_residency = False

    def make_allocator(self) -> Allocator:
        # TensorFlow-default arena: placement is decided once per slab at
        # its first touch and persists with the pages across steps — the
        # real reason first-touch behaves statically on training loops.
        assert self.machine is not None
        return ArenaAllocator(self.machine, self.place)

    def place(self, tensor: Tensor, now: float) -> DeviceKind:
        # The arena maps whole slabs: the placement decision must check the
        # slab the allocator will actually request, not the tensor's bytes,
        # or a small allocation can claim space a 16-page slab overflows.
        page_size = self.machine.page_size
        slab_bytes = max(
            ArenaAllocator.SLAB_PAGES * page_size,
            page_size * (-(-tensor.nbytes // page_size)),
        )
        if self.machine.fast.fits(slab_bytes):
            return DeviceKind.FAST
        return DeviceKind.SLOW


class MemoryModePolicy(PlacementPolicy):
    """Optane Memory Mode: DRAM is a hardware-managed cache of PMM.

    Software sees one flat (slow) memory; the simulated hardware cache
    decides what is DRAM-resident.  Fills and write-backs are synchronous —
    on the critical path — which is the mode's fundamental handicap against
    software prefetching.
    """

    name = "memory-mode"
    requires_residency = False

    def make_allocator(self) -> Allocator:
        # Same arena as plain TensorFlow: cache lines keyed by page runs
        # stay meaningful across steps because the runs persist.
        assert self.machine is not None
        return ArenaAllocator(self.machine, self.place)

    def place(self, tensor: Tensor, now: float) -> DeviceKind:
        return DeviceKind.SLOW

    def charge_access(
        self, tensor: Tensor, mapping: TensorMapping, access: TensorAccess, now: float
    ) -> AccessCharge:
        machine = self.machine
        assert machine is not None
        cache = machine.dram_cache
        page_size = machine.page_size
        charge = AccessCharge()
        for share in mapping.shares:
            run = share.run
            nbytes = access.nbytes * share.nbytes // tensor.nbytes
            if nbytes <= 0 and share.nbytes > 0:
                nbytes = min(share.nbytes, access.nbytes)
            if nbytes <= 0:
                continue
            pages = min(run.npages, max(1, -(-nbytes // page_size)))
            charge.fault += machine.fault_handler.on_access_pass(
                run, pages, access.is_write, passes=access.passes
            )
            was_resident = cache.resident(run.vpn)
            for _ in range(access.passes):
                charge.mem_time += cache.access(
                    run.vpn, run.npages * page_size, nbytes, access.is_write
                )
            if was_resident:
                charge.bytes_fast += nbytes * access.passes
            else:
                charge.bytes_slow += nbytes * access.passes
        return charge

    def on_free(self, tensor: Tensor, mapping: TensorMapping, now: float) -> None:
        assert self.machine is not None
        cache = self.machine.dram_cache
        for share in mapping.shares:
            cache.invalidate(share.run.vpn)
