"""The placement-policy interface every memory manager implements.

A :class:`PlacementPolicy` is the pluggable brain of a simulation run: it
decides where fresh allocations land (:meth:`place`), reacts to the
executor's layer/step lifecycle hooks (where Sentinel runs its interval
logic), and prices every memory access (:meth:`charge_access`) against the
current page placement — including stalling for residency on GPU-style
platforms, where a kernel cannot start until its operand pages are in fast
memory, and evicting resident runs (:func:`evict_coldest`) to make room.

The default :meth:`charge_access` implements the machine's physics; policies
normally override only placement/migration decisions and inherit the
pricing.  The Memory-Mode baseline overrides pricing too, routing accesses
through the simulated hardware DRAM cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.dnn.alloc import Allocator, PackedAllocator, TensorMapping
from repro.dnn.graph import Graph, Layer
from repro.dnn.ops import TensorAccess
from repro.dnn.tensor import Tensor
from repro.errors import ResidencyError
from repro.mem.devices import DeviceKind
from repro.mem.machine import Machine
from repro.mem.page import PageTableEntry


@dataclass
class AccessCharge:
    """Time and traffic cost of one op access under the current placement."""

    mem_time: float = 0.0
    stall: float = 0.0
    fault: float = 0.0
    bytes_fast: int = 0
    bytes_slow: int = 0

    def merge(self, other: "AccessCharge") -> None:
        self.mem_time += other.mem_time
        self.stall += other.stall
        self.fault += other.fault
        self.bytes_fast += other.bytes_fast
        self.bytes_slow += other.bytes_slow


def fits_fast(machine: "Machine", nbytes: int) -> bool:
    """Whether a fresh allocation of ``nbytes`` fits in fast memory.

    Allocators hand out whole pages (plus a possibly-shared tail page), so
    the capacity check must use the page-rounded size — checking the raw
    byte count admits allocations that overflow by up to a page.
    """
    page = machine.page_size
    rounded = page * (-(-nbytes // page))
    return machine.fast.fits(rounded)


#: On-demand eviction frees this much beyond the immediate request, so the
#: steady trickle of small allocations (temporaries) does not pay one
#: synchronous eviction each — the same batching a real device allocator does.
EVICTION_HEADROOM = 64 * 1024 * 1024


def evict_coldest(
    policy: "PlacementPolicy",
    nbytes: int,
    now: float,
    ranked_runs: List[PageTableEntry],
) -> float:
    """Demote runs (coldest first) until ``nbytes`` of fast memory frees.

    Returns the stall: fast frames are only vacated when the copy-out
    completes, so on-demand eviction is synchronous pain — the behaviour
    that makes Unified Memory slow and that Sentinel's eager mid-interval
    demotion avoids.
    """
    machine = policy.machine
    assert machine is not None
    page_size = machine.page_size
    needed = (
        max(nbytes, min(EVICTION_HEADROOM, machine.fast.capacity // 8))
        - machine.fast.free
    )
    # Demotions already in flight will free their frames when they land;
    # waiting for the earliest sufficient ones beats queueing more copies
    # behind them.
    inflight = sorted(
        (
            run
            for run in machine.page_table.entries()
            if run.migrating_to is DeviceKind.SLOW
        ),
        key=lambda run: run.available_at,
    )
    pending_bytes = 0
    wait_until = now
    for run in inflight:
        if pending_bytes >= needed:
            break
        pending_bytes += run.npages * page_size
        wait_until = max(wait_until, run.available_at)
    remaining = needed - pending_bytes
    victims: List[PageTableEntry] = []
    reclaimed = 0
    if remaining > 0:
        for run in ranked_runs:
            if reclaimed >= remaining:
                break
            if run.pinned or run.in_flight or run.device is not DeviceKind.FAST:
                continue
            victims.append(run)
            reclaimed += run.npages * page_size
    if victims:
        # Urgent: a demand miss is waiting on this space, so an injected
        # transient refusal here would surface as a spurious OOM — the
        # engine retries the eviction through instead.
        transfer, _ = machine.migration.demote(
            victims, now, tag="evict-on-demand", urgent=True
        )
        if transfer is not None:
            wait_until = max(wait_until, transfer.finish)
    stall = 0.0 if wait_until <= now else wait_until - now
    tracer = machine.tracer
    if tracer is not None and (victims or stall > 0.0):
        tracer.complete(
            "evict-on-demand",
            "gpu",
            ts=now,
            dur=stall,
            track="gpu",
            nbytes=nbytes,
            reclaimed=reclaimed,
            victims=len(victims),
            inflight_bytes=pending_bytes,
        )
    if stall <= 0.0:
        return 0.0
    machine.migration.sync(wait_until)
    return stall


class PlacementPolicy:
    """Base class for all memory-management policies."""

    #: Human-readable policy name (used in experiment tables).
    name = "base"

    #: Override the platform's residency requirement (None = inherit).
    requires_residency: Optional[bool] = None

    def __init__(self) -> None:
        self.machine: Optional[Machine] = None
        self.graph: Optional[Graph] = None
        self.residency = False

    # ------------------------------------------------------------ lifecycle

    def bind(self, machine: Machine, graph: Graph) -> None:
        """Attach the policy to a machine and workload before execution."""
        self.machine = machine
        self.graph = graph
        if self.requires_residency is None:
            self.residency = machine.platform.residency_required
        else:
            self.residency = self.requires_residency
        # charge_access prices every share from these, without a call into
        # the device: once per access of every op of every step.
        fast, slow = machine.fast.spec, machine.slow.spec
        self._read_prices = (
            fast.latency, fast.read_bandwidth, slow.latency, slow.read_bandwidth
        )
        self._write_prices = (
            fast.latency, fast.write_bandwidth, slow.latency, slow.write_bandwidth
        )

    def make_allocator(self) -> Allocator:
        """Allocator this policy runs on (TensorFlow-default packing)."""
        assert self.machine is not None, "bind() must run before make_allocator()"
        return PackedAllocator(self.machine, self.place)

    def on_engine(self, engine) -> None:
        """Hook: the executor attached a discrete-event engine.

        Policies that track asynchronous completions (Sentinel's prefetch
        bookkeeping) override this to subscribe to engine events; the base
        policy ignores it.  Must not emit trace or metrics events —
        subscriptions are internal bookkeeping so engine-driven runs stay
        byte-identical to the legacy loop.
        """

    # ----------------------------------------------------------- decisions

    def place(self, tensor: Tensor, now: float) -> DeviceKind:
        """Tier for a fresh run of ``tensor``; default everything on slow.

        (The paper's starting condition: "Before the training happens,
        tensors are allocated in slow memory.")
        """
        return DeviceKind.SLOW

    # Lifecycle hooks; returned floats are stall seconds the executor adds
    # to the critical path at that point.

    def on_step_start(self, step: int, now: float) -> float:
        return 0.0

    def on_layer_start(self, layer: Layer, now: float) -> float:
        return 0.0

    def on_layer_end(self, layer: Layer, now: float) -> float:
        return 0.0

    def on_step_end(self, step: int, now: float) -> float:
        return 0.0

    def on_alloc(self, tensor: Tensor, mapping: TensorMapping, now: float) -> None:
        pass

    def on_free(self, tensor: Tensor, mapping: TensorMapping, now: float) -> None:
        pass

    # ----------------------------------------------------------- accounting

    def charge_access(
        self, tensor: Tensor, mapping: TensorMapping, access: TensorAccess, now: float
    ) -> AccessCharge:
        """Price one op access under the current placement.

        The executor calls this once per access per op; at sweep scale the
        attribute chains and delegating call frames (``machine.access_time``
        -> ``device()`` -> ``spec``) would dominate the actual arithmetic,
        so everything is bound once per call and
        :meth:`~repro.mem.page.PageTableEntry.effective_device` is inlined.
        A share costs ``passes * (latency + nbytes / bandwidth)`` at the
        prices :meth:`bind` took from the tier's spec, times the injector's
        ``device_slowdown`` when one is attached: the same arithmetic, in
        the same order, as :meth:`~repro.mem.devices.MemoryDevice.access_time`.
        The fault handler is only invoked when it can count, i.e. the run
        is poisoned: on unpoisoned runs it returns 0.0 with no side effects.
        Each share's bytes are the access's bytes pro-rated by the share.
        """
        machine = self.machine
        assert machine is not None
        page_size = machine.page_table.page_size
        handler = machine.fault_handler
        injector = machine.injector
        residency = self.residency
        tensor_nbytes = tensor.nbytes
        a_nbytes = access.nbytes
        passes = access.passes
        is_write = access.is_write
        fast_latency, fast_bandwidth, slow_latency, slow_bandwidth = (
            self._write_prices if is_write else self._read_prices
        )
        FAST = DeviceKind.FAST
        mem_time = 0.0
        stall_total = 0.0
        fault = 0.0
        bytes_fast = 0
        bytes_slow = 0
        for share in mapping.shares:
            run = share.run
            share_nbytes = share.nbytes
            nbytes = a_nbytes * share_nbytes // tensor_nbytes
            if nbytes <= 0 and share_nbytes > 0:
                nbytes = share_nbytes if share_nbytes < a_nbytes else a_nbytes
            if nbytes <= 0:
                continue
            stall = 0.0
            if residency:
                stall = self.ensure_resident(run, now + stall_total)
                device = FAST
            else:
                migrating_to = run.migrating_to
                if migrating_to is not None and now >= run.available_at:
                    device = migrating_to
                else:
                    device = run.device
            if run.poisoned or passes <= 0:
                pages = min(run.npages, max(1, math.ceil(nbytes / page_size)))
                fault += handler.on_access_pass(run, pages, is_write, passes=passes)
            if device is FAST:
                time = fast_latency + nbytes / fast_bandwidth
                bytes_fast += nbytes * passes
            else:
                time = slow_latency + nbytes / slow_bandwidth
                bytes_slow += nbytes * passes
            if injector is not None:
                time *= injector.device_slowdown(device, is_write)
            mem_time += passes * time
            if is_write:
                run.initialized = True
            stall_total += stall
        return AccessCharge(mem_time, stall_total, fault, bytes_fast, bytes_slow)

    # ------------------------------------------------------------ residency

    def ensure_resident(self, run: PageTableEntry, now: float) -> float:
        """Make ``run`` resident on fast memory; returns stall seconds.

        Default behaviour is on-demand: promote immediately and stall until
        the copy lands, evicting via :meth:`evict_for` when fast memory is
        full.  Prefetching policies override the *scheduling* (so the run is
        usually resident already) and inherit this as their miss path.
        """
        machine = self.machine
        assert machine is not None
        if run.device is DeviceKind.FAST and not run.in_flight:
            return 0.0
        if run.in_flight:
            if run.migrating_to is DeviceKind.FAST:
                stall = max(0.0, run.available_at - now)
                machine.migration.sync(now + stall)
                return stall
            # Demotion racing an access: wait it out, then promote back.
            wait = max(0.0, run.available_at - now)
            machine.migration.sync(now + wait)
            return wait + self.ensure_resident(run, now + wait)
        nbytes = run.npages * machine.page_size
        if not machine.fast.fits(nbytes):
            wait = self.evict_for(nbytes, now)
            now += wait
        else:
            wait = 0.0
        if not run.initialized:
            # A never-written buffer has no contents to copy: back it with
            # device frames directly (cudaMalloc semantics), no transfer.
            if machine.migration.materialize(run, now):
                return wait
        transfer, scheduled, skipped = machine.migration.promote(
            [run], now, urgent=True
        )
        if skipped or transfer is None:
            raise ResidencyError(
                f"cannot promote run {run.vpn} ({nbytes} bytes): fast memory full "
                f"({machine.fast.free} free) and evict_for() made no room"
            )
        stall = max(0.0, transfer.finish - now)
        machine.migration.sync(transfer.finish)
        return wait + stall

    def evict_for(self, nbytes: int, now: float) -> float:
        """Free at least ``nbytes`` of fast memory; returns stall seconds.

        The default is :func:`evict_coldest` over the fast-resident runs in
        page-table order, oldest mapping first; policies that know which
        data is cold override it with their own ranking.
        """
        machine = self.machine
        assert machine is not None
        resident = machine.page_table.runs_on(DeviceKind.FAST)
        return evict_coldest(self, nbytes, now, resident)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
