"""The assembled heterogeneous-memory machine.

:class:`Machine` wires a :class:`~repro.mem.platforms.Platform` description
into live components — two devices, a page table, a TLB, the profiling fault
handler, and the two-channel migration engine — and offers the composite
operations (run mapping/unmapping, access-time lookup) the executor and
placement policies need.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.mem.admission import AdmissionController
from repro.mem.admission import describe_counters as describe_admission_counters
from repro.mem.cache import DRAMCache
from repro.mem.devices import DeviceKind, MemoryDevice
from repro.mem.faults import FaultHandler
from repro.mem.migration import MigrationEngine
from repro.mem.page import PageTable, PageTableEntry
from repro.mem.platforms import Platform
from repro.mem.pressure import PressureConfig, PressureGovernor
from repro.mem.ras import RASConfig, RasEngine
from repro.mem.tlb import TLB
from repro.obs.metrics import MetricsRegistry
from repro.sim.channel import BandwidthChannel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.chaos import FaultInjector
    from repro.obs.insight import InsightCollector
    from repro.obs.trace import EventTracer
    from repro.sim.engine import Engine


class Machine:
    """A live instance of a heterogeneous-memory platform.

    Args:
        platform: static platform description to instantiate.
        injector: optional :class:`repro.chaos.FaultInjector` threaded into
            every fallible component (devices, fault handler, migration
            engine).  ``None`` — the default — leaves all fault-free code
            paths byte-identical to a machine built before chaos existed.
        tracer: optional :class:`repro.obs.EventTracer` threaded into every
            event-emitting component (channels, migration engine, fault
            handler, and the injector if one is attached).  ``None`` — the
            default — records nothing: every instrumentation site is one
            ``is None`` check, so untraced runs stay bit-identical.
        pressure: optional :class:`~repro.mem.pressure.PressureConfig`;
            when enabled, a :class:`~repro.mem.pressure.PressureGovernor`
            gates background promotions at the high watermark, reclaims
            above the low watermark, and spills over-capacity fast
            allocations to the slow tier.  ``None`` or a disabled config
            (the defaults: watermarks at 100%, zero reserve) leaves every
            run byte-identical to a governor-free machine.
        metrics: the :class:`repro.obs.metrics.MetricsRegistry` this
            machine counts into; it becomes ``machine.stats``, so the
            ``migration.*`` / ``pressure.*`` / ``admission.*`` counters
            land in it and the caller can read them back.  ``None`` — the
            default — gives the machine a fresh registry of its own.
            Counting never steers: the run is byte-identical either way.
            What a run did over time lives in the ``tracer``'s events.
        ras: optional :class:`~repro.mem.ras.RASConfig`; when enabled, a
            :class:`~repro.mem.ras.RasEngine` injects seeded CE/UE memory
            errors, patrol-scrubs them, retires frames struck by UEs, and
            drives the tensor-recovery ladder.  ``None`` or a disabled
            config (the default: all rates zero) builds no engine and
            leaves every run byte-identical to a pre-RAS machine.
        insight: optional :class:`repro.obs.insight.InsightCollector`.
            The migration engine reports every promote/demote/discard/
            materialize to it and each executor on the machine observes
            through its own scope, yielding per-tensor residency timelines
            and churn analytics; the collector emits no events and touches
            no counters, so traced/metered output stays byte-identical.
            ``None`` — the default — keeps every hook site dormant.
        admission: optional
            :class:`repro.mem.admission.AdmissionController`.  When
            attached, every non-urgent promote/demote request is screened
            before submission (urgent demand migrations bypass it by
            contract).  ``None`` — the default — keeps both gate sites
            dormant; :class:`~repro.mem.admission.AlwaysAdmit` admits
            everything and stays trace-byte-identical to ``None``.
    """

    def __init__(
        self,
        platform: Platform,
        injector: Optional["FaultInjector"] = None,
        tracer: Optional["EventTracer"] = None,
        pressure: Optional[PressureConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        ras: Optional[RASConfig] = None,
        insight: Optional["InsightCollector"] = None,
        admission: Optional["AdmissionController"] = None,
    ) -> None:
        self.platform = platform
        self.injector = injector
        self.tracer = tracer
        if injector is not None and tracer is not None:
            injector.tracer = tracer
        self.fast = MemoryDevice(platform.fast, DeviceKind.FAST, injector=injector)
        self.slow = MemoryDevice(platform.slow, DeviceKind.SLOW, injector=injector)
        self.page_table = PageTable(page_size=platform.page_size)
        self.tlb = TLB()
        self.fault_handler = FaultHandler(
            self.page_table,
            self.tlb,
            fault_cost=platform.fault_cost,
            injector=injector,
            tracer=tracer,
        )
        self.stats = MetricsRegistry() if metrics is None else metrics
        self.promote_channel = BandwidthChannel(
            platform.promote_bandwidth,
            name="promote",
            latency=platform.migration_latency,
            tracer=tracer,
        )
        self.demote_channel = BandwidthChannel(
            platform.demote_bandwidth,
            name="demote",
            latency=platform.migration_latency,
            tracer=tracer,
        )
        self.demand_channel = BandwidthChannel(
            platform.promote_bandwidth,
            name="demand-promote",
            latency=platform.migration_latency,
            tracer=tracer,
        )
        self.migration = MigrationEngine(
            self.page_table,
            self.fast,
            self.slow,
            self.promote_channel,
            self.demote_channel,
            stats=self.stats,
            demand_channel=self.demand_channel,
            injector=injector,
            tracer=tracer,
        )
        self.pressure: Optional[PressureGovernor] = None
        if pressure is not None and pressure.enabled:
            self.pressure = PressureGovernor(pressure, self)
            self.migration.governor = self.pressure
        self.ras: Optional[RasEngine] = None
        if ras is not None and ras.enabled:
            self.ras = RasEngine(ras, self)
            self.migration.ras = self.ras
        self.insight: Optional["InsightCollector"] = insight
        if insight is not None:
            insight.bind(self)
            self.migration.insight = insight
        self.admission: Optional["AdmissionController"] = admission
        if admission is not None:
            self.migration.admission = admission
            describe_admission_counters(self.stats)
        self._dram_cache: Optional[DRAMCache] = None
        self.engine: Optional["Engine"] = None
        #: whether the machine is currently serving work.  Failure episodes
        #: (:class:`repro.chaos.EpisodeDriver`) flip this; the serving layer
        #: checks it before dispatching jobs and interrupts in-flight ones
        #: when it goes down.  Plain simulation paths never read it.
        self.online = True

    def set_online(self, online: bool, now: float) -> None:
        """Flip machine availability (failure-episode support).

        Emits a ``chaos``-category trace instant on transitions so outage
        windows are visible in the timeline; idempotent repeats are silent.
        """
        if online == self.online:
            return
        self.online = online
        if self.tracer is not None:
            self.tracer.instant(
                "machine-online" if online else "machine-offline",
                "chaos",
                ts=now,
                track="chaos",
            )

    def require_observers(
        self,
        tracer: Optional["EventTracer"] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """Raise ``ValueError`` unless each observer given is this machine's
        own: one it does not feed would stay empty."""
        for name, given, own in (
            ("tracer", tracer, self.tracer),
            ("metrics registry", metrics, self.stats),
        ):
            if given is not None and given is not own:
                raise ValueError(
                    f"pass the {name} to the Machine when supplying one explicitly"
                )

    def bind_engine(self, engine: "Engine") -> None:
        """Attach the machine's components to a discrete-event engine.

        Channels schedule :data:`~repro.sim.engine.EventKind.TRANSFER_DONE`
        events at their analytic finish times, and the migration engine
        subscribes to them so commits happen at the true completion instant
        instead of the next lazy ``sync``.  Idempotent per engine; binding
        a *different* engine mid-run is a scheduling bug and raises.
        """
        if self.engine is engine:
            return
        if self.engine is not None:
            raise RuntimeError("machine is already bound to a different engine")
        self.engine = engine
        self.promote_channel.bind_engine(engine)
        self.demote_channel.bind_engine(engine)
        self.demand_channel.bind_engine(engine)
        self.migration.bind_engine(engine)
        self.fault_handler.engine = engine
        if self.injector is not None:
            self.injector.engine = engine

    @classmethod
    def for_platform(
        cls,
        platform: Platform,
        fast_capacity: Optional[int] = None,
        injector: Optional["FaultInjector"] = None,
        tracer: Optional["EventTracer"] = None,
        pressure: Optional[PressureConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        ras: Optional[RASConfig] = None,
        insight: Optional["InsightCollector"] = None,
        admission: Optional[AdmissionController] = None,
    ) -> "Machine":
        """Build a machine, optionally resizing the fast tier.

        Experiments size fast memory as a fraction of each model's peak
        consumption (the paper's 20%-of-peak setting), so this is the common
        entry point.
        """
        if fast_capacity is not None:
            platform = platform.with_fast_capacity(fast_capacity)
        return cls(
            platform,
            injector=injector,
            tracer=tracer,
            pressure=pressure,
            metrics=metrics,
            ras=ras,
            insight=insight,
            admission=admission,
        )

    @property
    def page_size(self) -> int:
        return self.page_table.page_size

    def device(self, kind: DeviceKind) -> MemoryDevice:
        return self.fast if kind is DeviceKind.FAST else self.slow

    # ------------------------------------------------------------ allocation

    def map_run(self, npages: int, kind: DeviceKind, now: float = 0.0) -> PageTableEntry:
        """Map a fresh run of ``npages`` on tier ``kind``, charging capacity.

        With a pressure governor attached, a fast-tier request that does
        not fit in the non-reserved portion of fast memory spills to the
        slow tier (recorded as ``pressure.spill``) instead of raising.
        """
        nbytes = npages * self.page_size
        if (
            kind is DeviceKind.FAST
            and self.pressure is not None
            and not self.pressure.admit_allocation(nbytes, now)
        ):
            kind = DeviceKind.SLOW
            self.pressure.record_spill(nbytes, now)
        self.device(kind).allocate(nbytes)
        run = self.page_table.map_run(npages, kind)
        if self.pressure is not None:
            self.pressure.note_usage(now)
        return run

    def unmap_run(self, run: PageTableEntry, now: float) -> None:
        """Free a run, settling any in-flight migration first."""
        self.migration.release_run(run, now)
        self.tlb.flush(run.vpn)
        self.page_table.unmap(run.vpn)

    def unmap_runs(self, runs: Sequence[PageTableEntry], now: float) -> None:
        """Free a batch of runs in one pass (multi-run tensor teardown).

        Equivalent to :meth:`unmap_run` per run — release accounting is
        per-run independent, so settling them all, then one batched TLB
        shootdown, then the table updates reorders nothing observable —
        while paying the shootdown entry cost once.
        """
        for run in runs:
            self.migration.release_run(run, now)
        self.tlb.flush_many(run.vpn for run in runs)
        for run in runs:
            self.page_table.unmap(run.vpn)

    # ---------------------------------------------------------------- timing

    def access_time(self, kind: DeviceKind, nbytes: int, is_write: bool) -> float:
        return self.device(kind).access_time(nbytes, is_write)

    @property
    def dram_cache(self) -> DRAMCache:
        """Lazily-built Memory Mode cache (only the memory-mode policy uses it)."""
        if self._dram_cache is None:
            self._dram_cache = DRAMCache(
                self.fast,
                self.slow,
                self.page_size,
                fill_bandwidth=self.platform.promote_bandwidth,
                writeback_bandwidth=self.platform.demote_bandwidth,
            )
        return self._dram_cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine({self.platform.name!r}, fast={self.fast.used}/"
            f"{self.fast.capacity}, slow={self.slow.used}/{self.slow.capacity})"
        )
