"""Miniature dataflow DNN framework.

This package plays the role TensorFlow plays in the paper: it represents a
training step as a directed graph of operations grouped into layers, executes
the step against the simulated heterogeneous-memory machine, and exposes the
allocation hooks (``AllocateRaw``-style) that Sentinel and the baselines
intercept.

The framework does not compute numerics — operations carry FLOP counts and
per-tensor main-memory access descriptors instead — because every quantity
the paper's evaluation depends on (tensor sizes, lifetimes, access counts,
op timing, page placement) is captured by that cost model.
"""

from repro.dnn.tensor import Tensor, TensorKind
from repro.dnn.ops import Op, TensorAccess
from repro.dnn.graph import Graph, GraphBuilder, GraphError, Layer, Phase
from repro.dnn.alloc import (
    Allocator,
    GroupedAllocator,
    PackedAllocator,
    RunShare,
    TensorMapping,
)
from repro.dnn.policy import AccessCharge, PlacementPolicy
from repro.dnn.arena import ArenaAllocator
from repro.dnn.executor import Executor, StepObserver, StepResult

__all__ = [
    "Tensor",
    "TensorKind",
    "Op",
    "TensorAccess",
    "Graph",
    "GraphBuilder",
    "GraphError",
    "Layer",
    "Phase",
    "Allocator",
    "PackedAllocator",
    "GroupedAllocator",
    "TensorMapping",
    "RunShare",
    "PlacementPolicy",
    "AccessCharge",
    "Executor",
    "StepResult",
    "StepObserver",
    "ArenaAllocator",
]
