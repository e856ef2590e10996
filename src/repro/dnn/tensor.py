"""Tensors: the unit of memory management.

A tensor's identity, size, kind, and lifetime (in layers) are exactly the
attributes Sentinel's profiling phase discovers; the graph builder records
ground truth here so experiments can validate the profiler against it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional


class TensorKind(enum.Enum):
    """Role of a tensor in training, used by domain-knowledge baselines.

    Sentinel itself is graph-agnostic and never branches on this; vDNN
    (conv feature maps only) and the characterization study do.
    """

    WEIGHT = "weight"
    INPUT = "input"
    ACTIVATION = "activation"
    GRADIENT = "gradient"
    TEMP = "temp"
    GLOBAL = "global"  # step counters, LR, loss scale — tiny and very hot


#: Layer index used for allocations made before the training step starts.
PRE_STEP = -1


@dataclass
class Tensor:
    """One tensor in a training step's dataflow graph.

    Attributes:
        tid: unique id within the graph.
        name: human-readable name (op-derived, TensorFlow style).
        nbytes: size in bytes.
        kind: semantic role (see :class:`TensorKind`).
        preallocated: allocated before the training loop (weights, inputs,
            globals); lives across steps and can never be re-organized
            mid-training without creating wild pointers (paper §IV-B).
        alloc_layer: layer index of the allocation (``PRE_STEP`` if
            preallocated); filled in by :meth:`GraphBuilder.finish`.
        free_layer: index of the last layer that accesses the tensor; it is
            freed at that layer's end.  Preallocated tensors never free.
        layer_touches: ground-truth access passes per layer index, filled in
            from the ops that reference the tensor.
    """

    tid: int
    name: str
    nbytes: int
    kind: TensorKind
    preallocated: bool = False
    alloc_layer: int = PRE_STEP
    free_layer: Optional[int] = None
    layer_touches: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError(f"tensor {self.name!r} must have positive size")

    def __hash__(self) -> int:
        return self.tid

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tensor) and other.tid == self.tid

    @property
    def lifetime_layers(self) -> Optional[int]:
        """Number of layers the tensor is alive, or None if preallocated."""
        if self.preallocated or self.free_layer is None:
            return None
        return self.free_layer - self.alloc_layer + 1

    @property
    def short_lived(self) -> bool:
        """Alive no longer than one layer (the paper's definition)."""
        free_layer = self.free_layer
        return (
            free_layer is not None
            and not self.preallocated
            and free_layer <= self.alloc_layer
        )

    @property
    def total_touches(self) -> int:
        """Ground-truth main-memory access passes over one step."""
        return sum(self.layer_touches.values())

    def is_small(self, page_size: int) -> bool:
        """Smaller than one page (the paper's "small tensor")."""
        return self.nbytes < page_size

    def access_layers(self) -> tuple:
        """Sorted layer indices in which the tensor is accessed."""
        return tuple(sorted(self.layer_touches))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tensor({self.tid}, {self.name!r}, {self.nbytes}B, "
            f"{self.kind.value}, L{self.alloc_layer}..L{self.free_layer})"
        )
