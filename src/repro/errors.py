"""The common exception hierarchy of the reproduction runtime.

Every structured failure the runtime can raise derives from
:class:`ReproError`, so harness code can catch "anything this system
considers a managed failure" without enumerating concrete classes.  Two
branches matter to callers:

* :class:`MemoryPressureError` — the run hit a genuine capacity wall
  (device full, residency unsatisfiable).  The batch-size probes treat this
  branch as "infeasible", not as a bug.
* everything else — contract violations (:class:`ExecutionError`,
  :class:`PageError`), broken accounting (:class:`ConsistencyError`), or a
  migration mechanism failing permanently (:class:`MigrationFailure`).
  These indicate bugs or injected faults that the degradation machinery
  failed to absorb, and should surface.

The concrete classes are re-exported from their historical homes
(``repro.mem.devices.DeviceFullError``, ``repro.dnn.policy.ResidencyError``,
``repro.dnn.executor.ExecutionError``, ``repro.mem.page.PageError``) so
existing imports keep working.
"""

from __future__ import annotations


class ReproError(RuntimeError):
    """Base class for all structured failures raised by the runtime."""


class MemoryPressureError(ReproError):
    """A capacity wall: the workload does not fit the configured machine.

    Feasibility probes (``max_batch_size``, sweeps) catch this branch and
    record the point as out-of-memory rather than failing the experiment.
    """


class DeviceFullError(MemoryPressureError):
    """Raised when an allocation exceeds a device's remaining capacity."""


class ResidencyError(MemoryPressureError):
    """Raised when fast memory cannot hold a tensor that must be resident."""


class ExecutionError(ReproError):
    """Raised when a step cannot be executed (placement contract violated)."""


class PageError(ReproError):
    """Raised on invalid page-table operations (double map, missing run...)."""


class MigrationFailure(ReproError, ValueError):
    """A migration mechanism failed permanently (not a transient EBUSY).

    Transient submission failures are retried with backoff and, if they
    persist, degrade into the Case-3 "leave tensors in slow memory" path;
    this class is reserved for misuse of the engine itself (e.g. discarding
    an in-flight run), which no amount of retrying can fix.  Also a
    :class:`ValueError`: these were plain ``ValueError`` before the
    hierarchy existed and callers may still catch them as such.
    """


class TraceTruncatedError(ReproError):
    """An analysis refused a trace whose ring buffer dropped events.

    Critical-path attribution reads each step's time split off the step
    and layer spans of the full event stream; with the observation window
    truncated it would silently attribute only the surviving suffix.
    Raised by :mod:`repro.obs.critpath` when ``dropped > 0`` — callers
    should re-run with a larger ``EventTracer(capacity=...)``.

    Attributes:
        dropped: number of events the ring buffer overwrote.
    """

    def __init__(self, dropped: int) -> None:
        self.dropped = dropped
        super().__init__(
            f"trace window truncated: ring buffer dropped {dropped} events — "
            f"attribution may be partial; re-run with a larger "
            f"EventTracer(capacity=...)"
        )


class AccountingError(ReproError, ValueError):
    """Device byte-accounting went negative (over-release).

    Raised by :class:`repro.mem.devices.MemoryDevice` when a ``release``
    would drive the used counter below zero — always a bookkeeping bug in
    the caller (a double free), never a recoverable condition.  Also a
    :class:`ValueError`: these were plain ``ValueError`` before the typed
    class existed and callers may still catch them as such.

    Attributes:
        device: name of the device whose accounting broke.
    """

    def __init__(self, device: str, detail: str) -> None:
        self.device = device
        super().__init__(f"{device}: used accounting underflow — {detail}")


class UncorrectableMemoryError(ReproError):
    """An uncorrectable memory error survived every recovery rung.

    Raised by :class:`repro.mem.ras.RasEngine` when a UE hits data whose
    loss cannot be absorbed: no clean copy exists on the other tier and the
    owning tensor cannot be rematerialized from its producer op.  This is
    deliberately *not* a :class:`MemoryPressureError` — the workload fits,
    the data is gone — so feasibility probes never mistake it for OOM.  The
    serving layer catches it per job: the owning job fails (against its
    restart budget) while the machine stays online.

    Attributes:
        vpn: virtual page number of the poisoned-by-UE page.
        device: name of the device the error struck.
        tensor: tid of the owning tensor if one was identified, else None.
    """

    def __init__(
        self, vpn: int, device: str, tensor=None, detail: str = ""
    ) -> None:
        self.vpn = vpn
        self.device = device
        self.tensor = tensor
        message = (
            f"uncorrectable memory error on {device} at vpn {vpn} "
            f"exhausted the recovery ladder"
        )
        if tensor is not None:
            message += f" (tensor {tensor})"
        if detail:
            message += f" — {detail}"
        super().__init__(message)


class ConsistencyError(ReproError):
    """An internal invariant was violated; names the broken invariant.

    Raised by the opt-in :class:`repro.chaos.InvariantAuditor` when the
    machine's memory accounting stops balancing — the failure mode graceful
    degradation must never introduce silently.

    Attributes:
        invariant: short stable identifier of the violated invariant
            (e.g. ``"device.usage-non-negative"``).
    """

    def __init__(self, invariant: str, detail: str = "") -> None:
        self.invariant = invariant
        message = f"invariant violated: {invariant}"
        if detail:
            message = f"{message} — {detail}"
        super().__init__(message)
