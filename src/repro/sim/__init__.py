"""Simulation primitives shared by the memory substrate.

Two execution models coexist, by design:

* **Analytic timing** — DNN training steps are a deterministic schedule of
  layers and operations, so a single :class:`Clock` advances through the
  schedule and asynchronous work (page migration, cache fills) is modelled
  as transfers on :class:`BandwidthChannel` objects whose completion times
  are computed analytically at submission.  This is exact for one workload
  and is still how every duration in the simulator is *priced*.
* **Discrete events** — :class:`Engine` (``repro.sim.engine``) supplies a
  deterministic event kernel: heap-ordered ``(time, seq)`` queue, typed
  events with per-kind subscriptions, and generator :class:`Process`
  coroutines that yield float delays.  The executor's step body runs as a
  process on it, which is what lets N workloads share one machine's
  channels and capacity (``repro.harness.cluster``).  The engine changes
  *when code runs*, never *what times it computes* (see DESIGN.md §9).
"""

from repro.sim.clock import Clock
from repro.sim.channel import BandwidthChannel, Transfer
from repro.sim.engine import Engine, EngineError, Event, EventKind, Process

__all__ = [
    "Clock",
    "BandwidthChannel",
    "Transfer",
    "Engine",
    "EngineError",
    "Event",
    "EventKind",
    "Process",
]
