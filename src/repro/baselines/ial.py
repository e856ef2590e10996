"""IAL: the improved active-list tiered-memory manager of [19].

The kernel approach Sentinel compares against on CPU: pages promoted to
DRAM when referenced repeatedly and tracked on a FIFO active list; when
DRAM fills, the oldest promoted pages are demoted back to PMM.  It is
application-agnostic, which is precisely its weakness on DNN training:

* it promotes *short-lived* pages that will be dead before the promotion
  even completes (bandwidth waste — the paper's Figure 9 shows IAL leaving
  most traffic on slow memory),
* page-level decisions suffer false sharing under arena allocation,
* promotion is reactive — a page earns its way up only after paying slow
  accesses, where Sentinel's profile-driven prefetch pays none.

IAL runs on the :class:`~repro.dnn.arena.ArenaAllocator` (the TensorFlow
default): pages persist across steps, so a page promoted while hosting one
step's tensor is still DRAM-resident when the arena hands the same chunk to
the next step's tensor.  That page-reuse persistence — not any tensor-level
knowledge — is what lets the kernel approach perform at all here.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from repro.dnn.alloc import Allocator, TensorMapping
from repro.dnn.arena import ArenaAllocator
from repro.dnn.graph import Graph
from repro.dnn.ops import TensorAccess
from repro.dnn.policy import AccessCharge, PlacementPolicy
from repro.dnn.tensor import Tensor
from repro.mem.devices import DeviceKind
from repro.mem.machine import Machine
from repro.mem.page import PageTableEntry


class IALPolicy(PlacementPolicy):
    """FIFO active-list promotion/demotion over persistent arena pages.

    A run is promoted on its first reference: each access promotes the slow
    runs it touches before it returns, with no touch counts or scan queue.
    """

    name = "ial"
    requires_residency = False

    #: keep a slice of fast memory free so promotions are always admissible
    HEADROOM_FRACTION = 0.05

    def __init__(self) -> None:
        super().__init__()
        # FIFO of promoted runs: insertion order = promotion order.
        self._active: "OrderedDict[int, PageTableEntry]" = OrderedDict()

    def bind(self, machine: Machine, graph: Graph) -> None:
        super().bind(machine, graph)
        self._active.clear()

    def make_allocator(self) -> Allocator:
        assert self.machine is not None
        return ArenaAllocator(self.machine, self.place)

    def place(self, tensor: Tensor, now: float) -> DeviceKind:
        # Fresh arena slabs land on PMM; DRAM residency is earned through
        # the active list (and persists with the pages).
        return DeviceKind.SLOW

    # ------------------------------------------------------------ promotion

    def charge_access(
        self, tensor: Tensor, mapping: TensorMapping, access: TensorAccess, now: float
    ) -> AccessCharge:
        charge = super().charge_access(tensor, mapping, access, now)
        # Reference-triggered promotion, like the kernel's NUMA-balancing
        # hint faults: every touched slow run is promoted on its first
        # reference, regardless of how useful promoting it will be — that
        # obliviousness is the baseline's defining behaviour.  Every
        # candidate is judged before any of them moves: a promotion syncs
        # the migration engine, and a demotion landing there must not make
        # a run that was touched while in flight eligible after the fact.
        touched: Dict[int, PageTableEntry] = {}
        for share in mapping.shares:
            run = share.run
            if run.device is DeviceKind.SLOW and not run.in_flight and not run.pinned:
                touched.setdefault(run.vpn, run)
        machine = self.machine
        for vpn, run in touched.items():
            if (
                vpn not in machine.page_table
                or run.device is not DeviceKind.SLOW
                or run.in_flight
            ):
                continue
            nbytes = run.npages * machine.page_size
            headroom = int(machine.fast.capacity * self.HEADROOM_FRACTION)
            self._evict_to_fit(nbytes + headroom, now)
            if not machine.fast.fits(nbytes):
                continue  # eviction still draining; rediscovered next touch
            _, scheduled, _ = machine.migration.promote([run], now, tag="ial")
            for promoted in scheduled:
                self._active[promoted.vpn] = promoted
        return charge

    def on_layer_end(self, layer, now: float) -> float:
        # The base hook's no-op, kept on this class only because the
        # benchmark's span table (bench/spans.py) names it as a boundary.
        return 0.0

    def _evict_to_fit(self, nbytes: int, now: float) -> None:
        """Demote FIFO-oldest active runs until ``nbytes`` could fit."""
        machine = self.machine
        assert machine is not None
        victims = []
        projected_free = machine.fast.free
        while projected_free < nbytes and self._active:
            vpn, run = self._active.popitem(last=False)
            if (
                vpn not in machine.page_table
                or run.device is not DeviceKind.FAST
                or run.in_flight
            ):
                continue
            victims.append(run)
            projected_free += run.npages * machine.page_size
        if victims:
            _, scheduled = machine.migration.demote(victims, now, tag="ial-evict")
            scheduled_vpns = {run.vpn for run in scheduled}
            if len(scheduled_vpns) != len(victims):
                # A refused/aborted eviction leaves victims resident on fast
                # memory; put them back at the head of the FIFO so they stay
                # first in line for the next eviction attempt.
                for run in reversed(victims):
                    if run.vpn not in scheduled_vpns:
                        self._active[run.vpn] = run
                        self._active.move_to_end(run.vpn, last=False)
