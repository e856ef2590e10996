"""SwapAdvisor: genetic-algorithm swap planning [8].

SwapAdvisor searches the joint space of memory allocation and swap
scheduling with a genetic algorithm over simulated execution.  Per the
paper's critique, the search is *slow* (30+ minutes of planning that can
exceed short training jobs) and its objective is training time, not memory
minimization, so it swaps less aggressively than Sentinel.

Our genome is one gene per swappable (long-lived, step-allocated) tensor:
``(swap?, prefetch_lead)``; fitness is an analytic step-time estimate
(exposed-transfer model plus an infeasibility penalty when the resident set
overflows device memory).  The GA is seeded and budgeted, so runs are
deterministic and the planner's limited budget — the realistic handicap —
is explicit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines.common import forward_backward_spans, select_for_pressure
from repro.dnn.alloc import TensorMapping
from repro.dnn.graph import Graph, Layer
from repro.dnn.policy import PlacementPolicy, fits_fast
from repro.dnn.tensor import Tensor
from repro.mem.devices import DeviceKind
from repro.mem.machine import Machine
from repro.mem.page import PageTableEntry
from repro.sim.sums import ordered_sum

MAX_PREFETCH_LEAD = 4


@dataclass(frozen=True)
class _Candidate:
    """A swappable tensor with the schedule anchors the GA plans around."""

    tid: int
    nbytes: int
    offload_layer: int  # last forward touch
    use_layer: int  # first backward touch


def _find_candidates(graph: Graph) -> List[_Candidate]:
    return [
        _Candidate(tensor.tid, tensor.nbytes, offload_layer, use_layer)
        for tensor, offload_layer, use_layer in forward_backward_spans(graph)
        if use_layer > offload_layer + 1
    ]


@dataclass
class SwapPlan:
    """GA output: which tensors swap, and how early each prefetch starts."""

    swap: Dict[int, int]  # tid -> prefetch lead (layers before first use)
    fitness: float


class SwapAdvisorPolicy(PlacementPolicy):
    """Executes the GA-selected swap plan on GPU."""

    name = "swapadvisor"
    requires_residency = True

    def __init__(
        self,
        seed: int = 7,
        population: int = 24,
        generations: int = 12,
    ) -> None:
        super().__init__()
        if population < 2 or generations < 1:
            raise ValueError("GA needs population >= 2 and generations >= 1")
        self.seed = seed
        self.population = population
        self.generations = generations
        self.plan: Optional[SwapPlan] = None
        self._candidates: List[_Candidate] = []
        self._mappings: Dict[int, TensorMapping] = {}
        self._offload_at: Dict[int, List[int]] = {}
        self._prefetch_at: Dict[int, List[int]] = {}

    # -------------------------------------------------------------- planning

    def bind(self, machine: Machine, graph: Graph) -> None:
        super().bind(machine, graph)
        # Restrict the genome to a pressure-proportional candidate pool (the
        # GA's fitness would steer there anyway; this keeps planning fast
        # and small workloads untouched).
        self._candidates = select_for_pressure(
            _find_candidates(graph),
            graph.peak_memory_bytes(),
            machine.fast.capacity,
            size_of=lambda c: c.nbytes,
        )
        self.plan = self._run_ga(machine, graph)
        self._offload_at.clear()
        self._prefetch_at.clear()
        by_tid = {c.tid: c for c in self._candidates}
        for tid, lead in self.plan.swap.items():
            candidate = by_tid[tid]
            self._offload_at.setdefault(candidate.offload_layer, []).append(tid)
            prefetch_layer = max(0, candidate.use_layer - lead)
            self._prefetch_at.setdefault(prefetch_layer, []).append(tid)

    def _estimate(
        self,
        genome: Sequence[Tuple[bool, int]],
        machine: Machine,
        layer_times: List[float],
    ) -> float:
        """Analytic step time for one genome (the GA's fitness)."""
        capacity = machine.fast.capacity
        bandwidth = machine.platform.promote_bandwidth
        base = ordered_sum(layer_times)
        resident_extra = 0
        exposure = 0.0
        for (swap, lead), candidate in zip(genome, self._candidates):
            if not swap:
                # Stays on GPU across the forward->backward gap.
                resident_extra += candidate.nbytes
                continue
            transfer = candidate.nbytes / bandwidth
            start = max(0, candidate.use_layer - lead)
            hidden = ordered_sum(layer_times[start : candidate.use_layer])
            exposure += 2 * max(0.0, transfer - hidden)  # out and back in
        over = resident_extra - capacity * 0.5
        penalty = max(0.0, over) / bandwidth * 4.0
        return base + exposure + penalty

    def _run_ga(self, machine: Machine, graph: Graph) -> SwapPlan:
        from repro.core.profiler import estimate_layer_fast_times

        rng = random.Random(self.seed)
        layer_times = estimate_layer_fast_times(graph, machine)
        n = len(self._candidates)
        if n == 0:
            return SwapPlan(swap={}, fitness=ordered_sum(layer_times))

        def random_genome() -> List[Tuple[bool, int]]:
            return [
                (rng.random() < 0.5, rng.randint(1, MAX_PREFETCH_LEAD))
                for _ in range(n)
            ]

        def mutate(genome: List[Tuple[bool, int]]) -> List[Tuple[bool, int]]:
            out = list(genome)
            index = rng.randrange(n)
            swap, lead = out[index]
            if rng.random() < 0.5:
                out[index] = (not swap, lead)
            else:
                out[index] = (swap, rng.randint(1, MAX_PREFETCH_LEAD))
            return out

        def crossover(a, b) -> List[Tuple[bool, int]]:
            point = rng.randrange(1, n) if n > 1 else 0
            return list(a[:point]) + list(b[point:])

        population = [random_genome() for _ in range(self.population)]
        scored = [
            (self._estimate(g, machine, layer_times), g) for g in population
        ]
        for _ in range(self.generations):
            scored.sort(key=lambda item: item[0])
            elite = [g for _, g in scored[: max(2, self.population // 4)]]
            children = list(elite)
            while len(children) < self.population:
                a, b = rng.sample(elite, 2) if len(elite) >= 2 else (elite[0], elite[0])
                child = crossover(a, b)
                if rng.random() < 0.6:
                    child = mutate(child)
                children.append(child)
            scored = [
                (self._estimate(g, machine, layer_times), g) for g in children
            ]
        scored.sort(key=lambda item: item[0])
        fitness, best = scored[0]
        swap = {
            candidate.tid: lead
            for (flag, lead), candidate in zip(best, self._candidates)
            if flag
        }
        return SwapPlan(swap=swap, fitness=fitness)

    # ------------------------------------------------------------ execution

    def place(self, tensor: Tensor, now: float) -> DeviceKind:
        assert self.machine is not None
        if fits_fast(self.machine, tensor.nbytes):
            return DeviceKind.FAST
        return DeviceKind.SLOW

    def on_alloc(self, tensor: Tensor, mapping: TensorMapping, now: float) -> None:
        self._mappings[tensor.tid] = mapping

    def on_free(self, tensor: Tensor, mapping: TensorMapping, now: float) -> None:
        self._mappings.pop(tensor.tid, None)

    def on_layer_start(self, layer: Layer, now: float) -> float:
        runs = self._runs(self._prefetch_at.get(layer.index, ()), DeviceKind.SLOW)
        if runs:
            assert self.machine is not None
            self.machine.migration.promote_each(runs, now, tag="swapadvisor")
        return 0.0

    def on_layer_end(self, layer: Layer, now: float) -> float:
        runs = self._runs(self._offload_at.get(layer.index, ()), DeviceKind.FAST)
        if runs:
            assert self.machine is not None
            self.machine.migration.demote_each(runs, now, tag="swapadvisor")
        return 0.0

    def _runs(self, tids, device: DeviceKind) -> List[PageTableEntry]:
        runs: List[PageTableEntry] = []
        seen: Set[int] = set()
        for tid in tids:
            mapping = self._mappings.get(tid)
            if mapping is None:
                continue
            for share in mapping.shares:
                run = share.run
                if run.vpn in seen or run.in_flight or run.pinned:
                    continue
                seen.add(run.vpn)
                if run.device is device:
                    runs.append(run)
        return runs

    def evict_for(self, nbytes: int, now: float) -> float:
        from repro.core.gpu import evict_coldest

        assert self.machine is not None
        resident = self.machine.page_table.runs_on(DeviceKind.FAST)
        return evict_coldest(self, nbytes, now, resident)
