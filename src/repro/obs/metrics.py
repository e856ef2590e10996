"""The machine's counters.

``repro.obs.metrics`` counts; :mod:`repro.obs.trace` records.  Every
:class:`~repro.mem.machine.Machine` owns one :class:`MetricsRegistry`
(``machine.stats``), the namespace its components count into: bytes
migrated, faults taken, spills, admission decisions.  A caller reads the
totals back with :meth:`MetricsRegistry.counters`.  Anything with a time
or a shape — transfer sizes, queueing delays, bandwidth over time, tier
occupancy — is an argument of a trace event and is re-derived from the
trace with :class:`repro.obs.TraceQuery` (``span_rate_series`` is the
Figure 9 bandwidth plot), or per tensor by
:class:`repro.obs.insight.InsightCollector`.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["Counter", "MetricsRegistry"]


class Counter:
    """A named monotonic accumulator.

    ``add`` rejects negative amounts: every quantity counted (bytes moved,
    faults taken, retries) only ever grows, and a negative delta slipping in
    would silently corrupt differential checks that re-derive counter values
    from event traces.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def add(self, amount: float) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} is monotonic; cannot add {amount!r}"
            )
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value!r})"


class MetricsRegistry:
    """Namespace of named counters."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def counters(self, prefix: str = "") -> Dict[str, float]:
        """Snapshot of all counter values, optionally filtered by prefix."""
        return {
            name: counter.value
            for name, counter in self._counters.items()
            if name.startswith(prefix)
        }
