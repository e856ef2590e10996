"""Memory device models.

A :class:`MemoryDevice` is a capacity-tracked store with asymmetric read and
write bandwidths and a fixed access latency.  Timing is a simple linear
model — ``latency + bytes / bandwidth`` — which is what matters for
reproducing the paper's results: the *ratio* between fast and slow memory
bandwidth determines who wins and by how much.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import AccountingError, DeviceFullError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.chaos import FaultInjector

__all__ = [
    "AccountingError",
    "DeviceKind",
    "DeviceSpec",
    "DeviceFullError",
    "MemoryDevice",
]


class DeviceKind(enum.Enum):
    """Which tier of the heterogeneous memory a page lives on."""

    FAST = "fast"
    SLOW = "slow"

    def other(self) -> "DeviceKind":
        return DeviceKind.SLOW if self is DeviceKind.FAST else DeviceKind.FAST


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a memory device.

    Attributes:
        name: human-readable label ("DDR4", "Optane PMM", "HBM2"...).
        capacity: size in bytes.
        read_bandwidth: sustained read bandwidth, bytes/second.
        write_bandwidth: sustained write bandwidth, bytes/second.
        latency: fixed per-access latency in seconds.
    """

    name: str
    capacity: int
    read_bandwidth: float
    write_bandwidth: float
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"device capacity must be positive, got {self.capacity!r}")
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ValueError(f"device bandwidths must be positive: {self!r}")
        if self.latency < 0:
            raise ValueError(f"device latency must be non-negative: {self!r}")

    def with_capacity(self, capacity: int) -> "DeviceSpec":
        """A copy of this spec with a different capacity.

        Experiments size fast memory as a fraction of each model's peak
        consumption, so capacity is the one field that changes per run.
        """
        return DeviceSpec(
            name=self.name,
            capacity=int(capacity),
            read_bandwidth=self.read_bandwidth,
            write_bandwidth=self.write_bandwidth,
            latency=self.latency,
        )


class MemoryDevice:
    """A capacity-tracked memory device instance.

    Args:
        spec: static device description.
        kind: tier this device serves.
        injector: optional :class:`repro.chaos.FaultInjector` whose
            bandwidth-degradation episodes (Optane write throttling) stretch
            individual access times.  ``None`` keeps the exact linear model.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        kind: DeviceKind,
        injector: Optional["FaultInjector"] = None,
    ) -> None:
        self.spec = spec
        self.kind = kind
        self.injector = injector
        self.capacity = spec.capacity
        #: bytes currently allocated on the device, and their high-water mark
        self.used = 0
        self.peak_used = 0
        #: bytes withheld from allocation (frames retired by RAS)
        self.reserved = 0

    @property
    def free(self) -> int:
        return self.capacity - self.used - self.reserved

    def allocate(self, nbytes: int) -> None:
        """Reserve ``nbytes``; raises :class:`DeviceFullError` if it doesn't fit."""
        if nbytes < 0:
            raise ValueError(f"cannot allocate negative bytes {nbytes!r}")
        if self.used + nbytes > self.capacity - self.reserved:
            detail = f"({self.used}/{self.capacity} used"
            if self.reserved:
                detail += f", {self.reserved} reserved"
            detail += ")"
            raise DeviceFullError(
                f"{self.spec.name}: allocation of {nbytes} bytes exceeds capacity "
                f"{detail}"
            )
        self.used += nbytes
        if self.used > self.peak_used:
            self.peak_used = self.used

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the device; over-release is a bookkeeping bug."""
        if nbytes < 0:
            raise ValueError(f"cannot release negative bytes {nbytes!r}")
        if nbytes > self.used:
            raise AccountingError(
                self.spec.name,
                f"releasing {nbytes} bytes but only {self.used} allocated",
            )
        self.used -= nbytes

    def fits(self, nbytes: int) -> bool:
        return self.used + nbytes <= self.capacity - self.reserved

    def reserve(self, nbytes: int) -> int:
        """Withhold up to ``nbytes`` from allocation; returns bytes granted.

        Models frames taken out of service for good (RAS page retirement):
        reserved bytes behave as if the frames do not exist, but
        allocations already resident are untouched — the grant is clamped
        to current free space, never forcing an eviction.
        """
        if nbytes < 0:
            raise ValueError(f"cannot reserve negative bytes {nbytes!r}")
        granted = min(nbytes, self.free)
        self.reserved += granted
        return granted

    def access_time(self, nbytes: int, is_write: bool) -> float:
        """Time to move ``nbytes`` to/from the device, latency included."""
        if nbytes < 0:
            raise ValueError(f"cannot access negative bytes {nbytes!r}")
        bandwidth = self.spec.write_bandwidth if is_write else self.spec.read_bandwidth
        time = self.spec.latency + nbytes / bandwidth
        if self.injector is not None:
            # An active throttling episode (Optane under write pressure)
            # stretches this access; the neutral return is exactly 1.0 so a
            # zero-rate injector leaves the linear model bit-identical.
            time *= self.injector.device_slowdown(self.kind, is_write)
        return time

    def reset_peak(self) -> None:
        self.peak_used = self.used

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryDevice({self.spec.name!r}, kind={self.kind.value}, "
            f"used={self.used}/{self.capacity})"
        )
