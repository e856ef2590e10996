"""Sentinel-GPU (paper §V).

Differences from the CPU policy, all from the paper:

* **Profiling** uses the customized pinned-memory mechanism: tensors stay in
  host memory, ``mlock`` is intercepted so PTEs can still be poisoned, and
  every GPU access crosses the PCIe link — so the profiling step is priced
  at interconnect bandwidth, not HBM bandwidth, and access counting loses
  nothing because the protection faults fire on the host side.
* **Two-copy synchronization**: tensors allocated before the training loop
  keep a pinned host copy for profiling and a device copy for training; the
  copies are reconciled once when profiling ends, a one-step cost.
* **Case 3 always waits**: a GPU kernel cannot run against host-resident
  operands at useful speed, so the test-and-trial algorithm is unnecessary —
  the runtime stalls until the prefetch completes (subject to Eq. 2's
  minimization of exactly that stall).
* **Residency faults evict**: when fast (device) memory is full, the
  coldest resident long-lived data — farthest next use per the profile, or
  least-recently-promoted before a profile exists — is demoted first.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.runtime import MANAGED, PROFILING, SentinelConfig, SentinelPolicy
from repro.dnn.alloc import TensorMapping
from repro.dnn.ops import TensorAccess
from repro.dnn.policy import AccessCharge, evict_coldest
from repro.dnn.tensor import Tensor
from repro.mem.devices import DeviceKind
from repro.mem.page import PageTableEntry


class SentinelGPUPolicy(SentinelPolicy):
    """Sentinel with GPU global memory as the fast tier."""

    name = "sentinel-gpu"
    requires_residency: Optional[bool] = None  # inherit (True on GPU_HM)

    def __init__(self, config: Optional[SentinelConfig] = None) -> None:
        import dataclasses

        config = config if config is not None else SentinelConfig()
        # Case 3 must wait on GPU (§V); replace rather than mutate so a
        # caller-shared config object is left untouched.
        config = dataclasses.replace(config, test_and_trial=False)
        super().__init__(config)
        self._synced_after_profiling = False

    # ------------------------------------------------------------ profiling

    def charge_access(
        self, tensor: Tensor, mapping: TensorMapping, access: TensorAccess, now: float
    ) -> AccessCharge:
        if self.mode != PROFILING:
            return super().charge_access(tensor, mapping, access, now)
        # Pinned-memory profiling: the GPU reads host-resident pages over
        # the interconnect; faults are taken host-side and counted.
        machine = self.machine
        assert machine is not None
        page_size = machine.page_size
        charge = AccessCharge()
        link_bw = machine.platform.promote_bandwidth
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
            charge.mem_time += access.passes * nbytes / link_bw
            charge.bytes_slow += nbytes * access.passes
        return charge

    def on_step_start(self, step: int, now: float) -> float:
        stall = super().on_step_start(step, now)
        if self.mode == MANAGED and not self._synced_after_profiling:
            # Reconcile the pinned profiling copies of preallocated tensors
            # with their device copies — paid once (§V).
            self._synced_after_profiling = True
            assert self.graph is not None and self.machine is not None
            sync_bytes = sum(t.nbytes for t in self.graph.preallocated())
            stall += sync_bytes / self.machine.platform.promote_bandwidth
            tracer = self._tracer
            if tracer is not None:
                tracer.instant(
                    "two-copy-sync",
                    "gpu",
                    ts=now,
                    track="gpu",
                    nbytes=sync_bytes,
                    step=step,
                )
        return stall

    # ------------------------------------------------------------ residency

    def _resolve_case3(self, interval: int, now: float) -> float:
        """Case 3 on GPU: the interval proceeds and each kernel stalls when
        (and only when) its own operands are still in flight — waiting for
        the whole prefetch batch at the boundary would serialize transfers
        that later layers could have hidden.  §V's "must wait" happens at
        access granularity through :meth:`ensure_resident`."""
        pending = [t for t in self._prefetch.get(interval, ()) if t.finish > now]
        if pending:
            self.case3_occurrences += 1
            tracer = self._tracer
            if tracer is not None:
                tracer.instant(
                    "case3",
                    "gpu",
                    ts=now,
                    track="gpu",
                    interval=interval,
                    pending=len(pending),
                )
        return 0.0

    def ensure_resident(self, run: PageTableEntry, now: float) -> float:
        if self.mode == PROFILING:
            return 0.0  # pinned-memory accesses read host pages in place
        return super().ensure_resident(run, now)

    def evict_for(self, nbytes: int, now: float) -> float:
        """Free device memory for an on-demand promotion (residency miss)."""
        assert self.machine is not None
        ranked = self._runs_coldest_first(now)
        return evict_coldest(self, nbytes, now, ranked)

    def _runs_coldest_first(self, now: float) -> List[PageTableEntry]:
        machine = self.machine
        assert machine is not None
        resident = machine.page_table.runs_on(DeviceKind.FAST)
        if self.profile is None:
            # No profile yet (warm-up): oldest mappings first.
            return resident
        layer = self._current_layer

        def coldness(run: PageTableEntry):
            users = (
                self.allocator.users_of(run) if self.allocator is not None else set()
            )
            next_touches = []
            for tid in users:
                record = self.profile.tensors.get(tid)
                if record is None:
                    continue
                touch = record.next_touch_after(layer - 1)
                next_touches.append(
                    touch if touch is not None else self.profile.num_layers + 1
                )
            # Runs nobody will touch again sort first (most evictable).
            return -(min(next_touches) if next_touches else self.profile.num_layers + 2)

        return sorted(resident, key=coldness)
