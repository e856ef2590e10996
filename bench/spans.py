"""Outside-in host-time spans for the benchmark's traced pass.

The simulator has no self-profiling of its own, so the traced pass wraps a
fixed table of public functions per layer (:data:`BOUNDARIES`) from the
outside and records one span per boundary crossing: layer, start, end and
parent span.  Spans are kept in memory as flat arrays and reduced after the
round, so the per-call cost is two clock reads and four appends.

Rules that keep the numbers honest:

* Methods are patched on the class that defines them, before any machine
  is built.  Classmethods are wrapped at the underlying function.
  Module-level functions are also rebound in every loaded ``repro``
  module that imported them by value (``run_policy`` inside
  ``repro.harness.tournament``), so those call sites are caught too.
* A call into a layer from the same layer opens no span: a span is a
  crossing between layers, and ``calls`` counts crossings.
* Generator functions (``Executor.step_process``) are driven by the event
  engine, not called to completion, so the wrapper returns a proxy that
  times each resume as its own span.  Without it, the step body's work
  would land in whichever layer happens to resume the generator.
* Self time is a span's duration minus the durations of its direct
  children.  The round itself is the root span, so self times sum to the
  round's host time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

#: Name of the root span: the benchmark's own code around the layers.
ROOT = "bench"

#: Layer -> public boundaries, as ``"module:qualname"``.  Only boundaries
#: the workloads reach are listed (``bench/tests`` checks every one is hit
#: on a dcgan smoke); the vectorized path never calls ``TLB.lookup``,
#: ``PageTable.run_containing``, ``runs_in_range`` or ``Engine.step``.
BOUNDARIES: Dict[str, Tuple[str, ...]] = {
    "harness": (
        "repro.harness.runner:run_policy",
        "repro.harness.tournament:run_tournament",
    ),
    "serve": (
        "repro.serve.server:Server.__init__",
        "repro.serve.server:Server.run",
        "repro.serve.arrivals:TraceArrivals.schedule",
        "repro.serve.arrivals:JobTemplate.build_graph",
    ),
    "models": ("repro.models.zoo:build_model",),
    "dnn.executor": (
        "repro.dnn.executor:Executor.__init__",
        "repro.dnn.executor:Executor.step_process",
        "repro.dnn.executor:Executor.run_step",
        "repro.dnn.executor:Executor.run_steps",
        "repro.dnn.executor:Executor.teardown",
    ),
    "dnn.policy": (
        "repro.dnn.policy:PlacementPolicy.bind",
        "repro.dnn.policy:PlacementPolicy.make_allocator",
        "repro.dnn.policy:PlacementPolicy.charge_access",
        "repro.dnn.policy:PlacementPolicy.on_step_start",
        "repro.dnn.policy:PlacementPolicy.on_step_end",
        "repro.dnn.policy:PlacementPolicy.on_layer_start",
        "repro.dnn.policy:PlacementPolicy.on_layer_end",
        "repro.dnn.policy:PlacementPolicy.on_alloc",
        "repro.dnn.policy:PlacementPolicy.on_free",
        "repro.baselines.simple:FastOnlyPolicy.place",
        "repro.baselines.ial:IALPolicy.bind",
        "repro.baselines.ial:IALPolicy.make_allocator",
        "repro.baselines.ial:IALPolicy.place",
        "repro.baselines.ial:IALPolicy.charge_access",
        "repro.baselines.ial:IALPolicy.on_layer_end",
        "repro.baselines.autotm:AutoTMPolicy.bind",
        "repro.baselines.autotm:AutoTMPolicy.place",
        "repro.baselines.autotm:AutoTMPolicy.on_alloc",
        "repro.baselines.autotm:AutoTMPolicy.on_free",
        "repro.baselines.autotm:AutoTMPolicy.on_layer_start",
        "repro.baselines.autotm:AutoTMPolicy.on_layer_end",
    ),
    "dnn.alloc": (
        "repro.dnn.alloc:Allocator.alloc",
        "repro.dnn.alloc:Allocator.free",
        "repro.dnn.arena:ArenaAllocator.alloc",
        "repro.dnn.arena:ArenaAllocator.free",
        "repro.dnn.arena:ArenaAllocator.release_all",
    ),
    "core.runtime": (
        "repro.core.runtime:SentinelPolicy.make_allocator",
        "repro.core.runtime:SentinelPolicy.on_engine",
        "repro.core.runtime:SentinelPolicy.place",
        "repro.core.runtime:SentinelPolicy.charge_access",
        "repro.core.runtime:SentinelPolicy.on_step_start",
        "repro.core.runtime:SentinelPolicy.on_step_end",
        "repro.core.runtime:SentinelPolicy.on_layer_start",
        "repro.core.runtime:SentinelPolicy.on_layer_end",
        "repro.core.runtime:SentinelPolicy.on_alloc",
        "repro.core.runtime:SentinelPolicy.on_free",
    ),
    "core.profiler": (
        "repro.core.profiler:ProfileCollector.on_alloc",
        "repro.core.profiler:ProfileCollector.on_free",
        "repro.core.profiler:ProfileCollector.on_layer_end",
        "repro.core.profiler:ProfileCollector.finalize",
    ),
    "core.interval": (
        "repro.core.interval:choose_interval_length",
        "repro.core.interval:evaluate_interval_length",
    ),
    "mem.machine": (
        "repro.mem.machine:Machine.for_platform",
        "repro.mem.machine:Machine.__init__",
        "repro.mem.machine:Machine.bind_engine",
        "repro.mem.machine:Machine.map_run",
        "repro.mem.machine:Machine.unmap_run",
        "repro.mem.machine:Machine.unmap_runs",
    ),
    "mem.migration": (
        "repro.mem.migration:MigrationEngine.promote",
        "repro.mem.migration:MigrationEngine.demote",
        "repro.mem.migration:MigrationEngine.sync",
        "repro.mem.migration:MigrationEngine.release_run",
        "repro.mem.migration:MigrationEngine.in_flight_bytes",
    ),
    "mem.page": (
        "repro.mem.page:PageTable.map_run",
        "repro.mem.page:PageTable.unmap",
        "repro.mem.page:PageTable.poison_all",
        "repro.mem.page:PageTable.unpoison_all",
    ),
    "mem.tlb": (
        "repro.mem.tlb:TLB.flush",
        "repro.mem.tlb:TLB.flush_many",
        "repro.mem.tlb:TLB.flush_all",
    ),
    "mem.faults": ("repro.mem.faults:FaultHandler.on_access_pass",),
    "mem.pressure": (
        "repro.mem.pressure:PressureGovernor.admit_allocation",
        "repro.mem.pressure:PressureGovernor.refuse_promotion",
        "repro.mem.pressure:PressureGovernor.note_usage",
        "repro.mem.pressure:PressureGovernor.end_step",
    ),
    "mem.admission": (
        "repro.mem.admission:AdmissionController.on_admitted",
        "repro.mem.admission:AdmissionController.on_step",
        "repro.mem.admission:AlwaysAdmit.decide",
        "repro.mem.admission:BenefitCostController.decide",
        "repro.mem.admission:BenefitCostController.on_admitted",
        "repro.mem.admission:FeedbackController.decide",
        "repro.mem.admission:FeedbackController.on_admitted",
        "repro.mem.admission:FeedbackController.on_step",
    ),
    "sim.engine": (
        "repro.sim.engine:Engine.process",
        "repro.sim.engine:Engine.run",
        "repro.sim.engine:Engine.run_until_complete",
        "repro.sim.engine:Engine.schedule",
        "repro.sim.engine:Engine.schedule_at",
    ),
    "sim.channel": (
        "repro.sim.channel:BandwidthChannel.bind_engine",
        "repro.sim.channel:BandwidthChannel.submit",
        "repro.sim.channel:BandwidthChannel.backlog_at",
    ),
    "obs.insight": (
        "repro.obs.insight:InsightCollector.__init__",
        "repro.obs.insight:InsightCollector.bind",
        "repro.obs.insight:InsightCollector.scope",
        "repro.obs.insight:InsightCollector.on_migration",
        "repro.obs.insight:InsightCollector.finalize",
        "repro.obs.insight:InsightCollector.summary",
        "repro.obs.insight:InsightScope.on_step_start",
        "repro.obs.insight:InsightScope.on_tensor_allocated",
        "repro.obs.insight:InsightScope.on_tensor_freed",
        "repro.obs.insight:InsightScope.on_layer_end",
        "repro.obs.insight:InsightScope.on_step_end",
        "repro.obs.insight:InsightScope.record",
    ),
}

#: The layers in report order.
LAYERS: Tuple[str, ...] = tuple(BOUNDARIES)


class SpanRecorder:
    """In-memory span store.

    Span ``i`` is ``(layers[name[i]], start[i], end[i], parent[i])``;
    span 0 is the root, opened by :meth:`open_root`.
    """

    def __init__(
        self,
        layers: Sequence[str] = LAYERS,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.layers: Tuple[str, ...] = (ROOT,) + tuple(layers)
        self.clock = clock
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        #: open span indices, innermost last, and their layer ids (after a
        #: -1 sentinel, so the wrappers can always read the innermost layer)
        self.stack: List[int] = []
        self.stack_layers: List[int] = [-1]
        #: host seconds of every completed generator, one entry per step
        self.generator_s: List[float] = []

    def layer_id(self, layer: str) -> int:
        return self.layers.index(layer)

    def open(self, lid: int) -> int:
        index = len(self.start)
        self.name.append(lid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(self.clock())
        self.end.append(0.0)
        self.stack.append(index)
        self.stack_layers.append(lid)
        return index

    def close(self, index: int) -> float:
        now = self.clock()
        self.end[index] = now
        self.stack.pop()
        self.stack_layers.pop()
        return now - self.start[index]

    def open_root(self) -> None:
        if self.start:
            raise RuntimeError("the root span must be the first span")
        self.open(0)

    def close_root(self) -> float:
        if self.stack != [0]:
            raise RuntimeError(f"spans still open under the root: {self.stack!r}")
        return self.close(0)

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """Per layer: (self seconds, crossings).  The root counts no crossing."""
        import numpy as np

        n = len(self.start)
        if n == 0 or self.stack:
            raise RuntimeError("reduce spans only after the root span closed")
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.uint16)
        children = np.bincount(parent[1:], weights=duration[1:], minlength=n)
        own = duration - children
        per_layer = np.bincount(name, weights=own, minlength=len(self.layers))
        calls = np.bincount(name, minlength=len(self.layers))
        calls[0] = 0
        return {
            layer: (float(per_layer[i]), int(calls[i]))
            for i, layer in enumerate(self.layers)
        }


class _GeneratorProxy:
    """Times every resume of a wrapped generator as a span of its layer.

    Implements the generator protocol (``send``/``throw``/``close``) so the
    engine's ``Process`` and ``yield from`` drive it exactly like the
    generator it wraps.
    """

    __slots__ = ("_gen", "_recorder", "_lid", "_host")

    def __init__(self, gen, recorder: SpanRecorder, lid: int) -> None:
        self._gen = gen
        self._recorder = recorder
        self._lid = lid
        self._host = 0.0

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._gen.send, None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *exc):
        return self._resume(self._gen.throw, *exc)

    def close(self) -> None:
        self._gen.close()

    def _resume(self, method, *args):
        recorder = self._recorder
        index = recorder.open(self._lid)
        finished = False
        try:
            return method(*args)
        except StopIteration:
            finished = True
            raise
        finally:
            self._host += recorder.close(index)
            if finished:
                recorder.generator_s.append(self._host)


def _wrap(fn, recorder: SpanRecorder, lid: int, hits: List[int], slot: int):
    if inspect.isgeneratorfunction(fn):

        def generator_wrapper(*args, **kwargs):
            hits[slot] += 1
            return _GeneratorProxy(fn(*args, **kwargs), recorder, lid)

        return generator_wrapper

    stack_layers = recorder.stack_layers
    open_span = recorder.open
    close_span = recorder.close

    def wrapper(*args, **kwargs):
        hits[slot] += 1
        if stack_layers[-1] == lid:
            return fn(*args, **kwargs)
        index = open_span(lid)
        try:
            return fn(*args, **kwargs)
        finally:
            close_span(index)

    return wrapper


def resolve(boundary: str):
    """``"module:Qual.name"`` -> (owner object, attribute name, raw attribute).

    Methods must be defined on the named class itself (in its ``__dict__``),
    so the table always points at the code that actually runs.
    """
    module_name, _, qualname = boundary.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if inspect.isclass(owner):
        if attr not in owner.__dict__:
            raise AttributeError(f"{boundary}: not defined on {owner.__name__}")
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Boundaries:
    """Installs the wrappers; :meth:`uninstall` restores every original."""

    def __init__(
        self,
        recorder: SpanRecorder,
        table: Dict[str, Tuple[str, ...]] = BOUNDARIES,
    ) -> None:
        self.recorder = recorder
        self.table = table
        self.names: List[str] = [b for bounds in table.values() for b in bounds]
        self.hits: List[int] = [0] * len(self.names)
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> "Boundaries":
        if self._undo:
            raise RuntimeError("boundaries are already installed")
        slot = 0
        for layer, bounds in self.table.items():
            lid = self.recorder.layer_id(layer)
            for boundary in bounds:
                owner, attr, raw = resolve(boundary)
                self._patch(owner, attr, raw, lid, slot)
                slot += 1
        return self

    def _patch(self, owner, attr: str, raw, lid: int, slot: int) -> None:
        recorder, hits = self.recorder, self.hits
        if isinstance(raw, classmethod):
            patched = classmethod(_wrap(raw.__func__, recorder, lid, hits, slot))
        else:
            patched = _wrap(raw, recorder, lid, hits, slot)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, patched)
        if inspect.isclass(owner):
            return
        # A function imported by value keeps the original object in the
        # importing module's namespace: rebind it there as well.
        for name, module in list(sys.modules.items()):
            if module is owner or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._undo.append((module, key, raw))
                    setattr(module, key, patched)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def unreached(self) -> List[str]:
        return [name for name, hit in zip(self.names, self.hits) if hit == 0]
