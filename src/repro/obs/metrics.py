"""The machine's counters, with canonical exposition.

``repro.obs.metrics`` counts; :mod:`repro.obs.trace` records.  Every
:class:`~repro.mem.machine.Machine` owns one :class:`MetricsRegistry`
(``machine.stats``), the namespace its components count into: bytes
migrated, faults taken, spills, admission decisions.  Anything with a time
or a shape — transfer sizes, queueing delays, bandwidth over time, tier
occupancy — is an argument of a trace event and is re-derived from the
trace with :class:`repro.obs.TraceQuery` (``span_rate_series`` is the
Figure 9 bandwidth plot), or per tensor by
:class:`repro.obs.insight.InsightCollector`.

Exposition is deterministic both ways: :meth:`MetricsRegistry.to_json`
emits canonical JSON (sorted keys, compact separators — byte-stable across
runs and insertion orders) and :meth:`MetricsRegistry.to_prometheus` emits
the Prometheus text format.
"""

from __future__ import annotations

import json
from typing import Dict, List

__all__ = ["Counter", "MetricsRegistry"]


class Counter:
    """A named monotonic accumulator.

    ``add`` rejects negative amounts: every quantity counted (bytes moved,
    faults taken, retries) only ever grows, and a negative delta slipping in
    would silently corrupt differential checks that re-derive counter values
    from event traces.  Use :meth:`reset` to start over.
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

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value!r})"


class MetricsRegistry:
    """Namespace of named counters with canonical exposition."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._help: Dict[str, str] = {}

    def describe(self, name: str, text: str) -> None:
        """Attach Prometheus ``# HELP`` text to the counter called ``name``.

        Idempotent per name (last call wins); counters without a description
        expose their dotted name as the help string.
        """
        self._help[name] = text

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

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()

    # ----------------------------------------------------------- exposition

    def snapshot(self) -> Dict[str, dict]:
        """Canonical nested-dict snapshot: ``{"counters": {name: value}}``."""
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            }
        }

    def to_json(self) -> str:
        """Canonical JSON exposition: sorted keys, compact separators.

        Byte-stable for a given set of recorded values regardless of the
        order counters were registered or updated in — diffable across runs
        the same way :func:`repro.obs.export.canonical_digest` is for
        traces.
        """
        return json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":"))

    def to_prometheus(self, namespace: str = "repro") -> str:
        """Prometheus text-format exposition (version 0.0.4).

        Every counter carries a ``# HELP`` line (the text set via
        :meth:`describe`, defaulting to the dotted name) ahead of its
        ``# TYPE`` line, escaped per the exposition-format spec.
        """
        lines: List[str] = []
        for name in sorted(self._counters):
            flat = _prom_name(namespace, name)
            lines.append(f"# HELP {flat} {_escape_help(self._help.get(name, name))}")
            lines.append(f"# TYPE {flat} counter")
            lines.append(f"{flat} {_prom_value(self._counters[name].value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(namespace: str, name: str) -> str:
    """Sanitize a dotted metric name into a Prometheus identifier."""
    flat = f"{namespace}_{name}" if namespace else name
    out = []
    for index, char in enumerate(flat):
        if char.isalnum() and (index > 0 or not char.isdigit()) or char in "_:":
            out.append(char)
        else:
            out.append("_")
    return "".join(out)


def _prom_value(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    """Escape ``# HELP`` text: the spec escapes backslash and line-feed only."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")
