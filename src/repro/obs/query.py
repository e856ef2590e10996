"""Query helper over event traces: filtering, spans, overlap accounting.

:class:`TraceQuery` is the read side of ``repro.obs``: experiments use it
to re-derive figure data from a trace (e.g. Figure 9's bandwidth series
from channel spans) and the regression suites use it to assert temporal
invariants — spans on a FIFO channel never overlap, every fault lands
inside a step span, counter totals match event totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.obs.trace import TraceEvent


@dataclass(frozen=True)
class Span:
    """A closed interval reconstructed from one ``X`` or a ``B``/``E`` pair."""

    name: str
    cat: str
    track: str
    start: float
    end: float
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, ts: float) -> bool:
        """Whether ``ts`` falls inside this span (closed interval)."""
        return self.start <= ts <= self.end


class TraceQuery:
    """Chainable filters and aggregations over a sequence of events."""

    def __init__(self, events: Iterable[TraceEvent]) -> None:
        self.events: List[TraceEvent] = list(events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    # ------------------------------------------------------------ filtering

    def filter(
        self,
        cat: Optional[str] = None,
        name: Optional[str] = None,
        track: Optional[str] = None,
        tensor: Optional[str] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> "TraceQuery":
        """Events matching every given criterion (``tensor`` matches the
        ``tensor`` args key, so tensor-scoped questions need no lambda)."""
        out = []
        for event in self.events:
            if cat is not None and event.cat != cat:
                continue
            if name is not None and event.name != name:
                continue
            if track is not None and event.track != track:
                continue
            if tensor is not None and event.args.get("tensor") != tensor:
                continue
            if predicate is not None and not predicate(event):
                continue
            out.append(event)
        return TraceQuery(out)

    def between(self, start: float, end: float) -> "TraceQuery":
        """Events whose timestamp falls in ``[start, end)`` (``X`` events
        qualify if their span intersects the window; a zero-duration ``X``
        is treated like an instant at its timestamp, so one sitting exactly
        on ``start`` is included — a strict ``ts + dur > start`` test would
        drop it while admitting an ``i`` event at the same time)."""
        out = []
        for event in self.events:
            if event.ph == "X" and event.dur > 0.0:
                if event.ts < end and event.ts + event.dur > start:
                    out.append(event)
            elif start <= event.ts < end:
                out.append(event)
        return TraceQuery(out)

    # ---------------------------------------------------------------- spans

    def spans(
        self,
        cat: Optional[str] = None,
        name: Optional[str] = None,
        track: Optional[str] = None,
    ) -> List[Span]:
        """Spans from ``X`` events and LIFO-paired ``B``/``E`` events.

        Pairing is per track: an ``E`` closes the most recent open ``B`` on
        its track (the nesting discipline the emitters follow).  Unclosed
        ``B`` events are dropped — a truncated ring buffer must not invent
        intervals.  Filters apply to the resulting spans.
        """
        spans: List[Span] = []
        open_stacks: Dict[str, List[TraceEvent]] = {}
        for event in self.events:
            if event.ph == "X":
                spans.append(
                    Span(
                        name=event.name,
                        cat=event.cat,
                        track=event.track,
                        start=event.ts,
                        end=event.ts + event.dur,
                        args=dict(event.args),
                    )
                )
            elif event.ph == "B":
                open_stacks.setdefault(event.track, []).append(event)
            elif event.ph == "E":
                stack = open_stacks.get(event.track)
                if stack:
                    begin = stack.pop()
                    merged = dict(begin.args)
                    merged.update(event.args)
                    spans.append(
                        Span(
                            name=begin.name,
                            cat=begin.cat,
                            track=begin.track,
                            start=begin.ts,
                            end=event.ts,
                            args=merged,
                        )
                    )
        spans.sort(key=lambda span: (span.start, span.end, span.track, span.name))
        return [
            span
            for span in spans
            if (cat is None or span.cat == cat)
            and (name is None or span.name == name)
            and (track is None or span.track == track)
        ]

    def total_span_time(self, **criteria: Optional[str]) -> float:
        """Sum of span durations matching the :meth:`spans` criteria."""
        return sum(span.duration for span in self.spans(**criteria))

    def overlap_time(self, track: str, cat: Optional[str] = None) -> float:
        """Seconds covered by two or more spans at once on ``track``.

        Zero on a well-formed FIFO channel track — the property the
        trace-invariant suite asserts.
        """
        edges: List[tuple] = []
        for span in self.spans(cat=cat, track=track):
            edges.append((span.start, 1))
            edges.append((span.end, -1))
        edges.sort()
        depth = 0
        overlapped = 0.0
        previous = 0.0
        for ts, delta in edges:
            if depth >= 2:
                overlapped += ts - previous
            depth += delta
            previous = ts
        return overlapped

    def covering_span(
        self, ts: float, cat: Optional[str] = None, name: Optional[str] = None
    ) -> Optional[Span]:
        """The innermost (shortest) span containing ``ts``, or ``None``."""
        candidates = [span for span in self.spans(cat=cat, name=name) if span.contains(ts)]
        if not candidates:
            return None
        return min(candidates, key=lambda span: span.duration)

    # ----------------------------------------------------------- aggregates

    def sum_arg(self, key: str, default: float = 0.0) -> float:
        """Sum of a numeric args field across all events."""
        total = default
        for event in self.events:
            value = event.args.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total += value
        return total

    def count(self) -> int:
        return len(self.events)

    def categories(self) -> Dict[str, int]:
        """Event counts per category (summary-table fuel)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.cat] = counts.get(event.cat, 0) + 1
        return counts

    def tracks(self) -> List[str]:
        """Distinct track names in first-appearance order."""
        seen: List[str] = []
        for event in self.events:
            if event.track not in seen:
                seen.append(event.track)
        return seen

    def span_rate_series(
        self, bin_width: float, arg: str = "nbytes", **criteria: Optional[str]
    ) -> List[tuple]:
        """``(bin_start, arg_per_second)`` pairs from matching spans.

        Each span's ``arg`` total is spread uniformly over its duration, so
        ``span_rate_series(0.01, cat="migration", name="promote")`` is the
        Figure 9 bandwidth-over-time plot: promoted bytes per second in
        10 ms bins.  The trace is the only record of it; bins times rates
        sum back to the ``migration.promoted_bytes`` counter.
        """
        if bin_width <= 0.0:
            raise ValueError(f"bin width must be positive, got {bin_width!r}")
        bins: Dict[int, float] = {}
        for span in self.spans(**criteria):
            amount = span.args.get(arg)
            if not isinstance(amount, (int, float)) or isinstance(amount, bool):
                continue
            if span.duration <= 0.0:
                index = int(span.start / bin_width)
                bins[index] = bins.get(index, 0.0) + amount
                continue
            rate = amount / span.duration
            first = int(span.start / bin_width)
            last = int(span.end / bin_width)
            for index in range(first, last + 1):
                lo = index * bin_width
                hi = lo + bin_width
                cover = min(span.end, hi) - max(span.start, lo)
                if cover > 0.0:
                    bins[index] = bins.get(index, 0.0) + rate * cover
        return [
            (index * bin_width, total / bin_width)
            for index, total in sorted(bins.items())
        ]
