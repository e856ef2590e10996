"""Operations and their main-memory access descriptors.

An :class:`Op` is a node of the dataflow graph: a FLOP count plus a list of
:class:`TensorAccess` records describing how the op streams through main
memory.  Access *passes* are the quantity Sentinel's profiler counts — one
pass over a tensor faults once per touched page — and distinguish "the op
references this tensor" (what most related work checks) from "how many times
the tensor is actually read from or written to memory" (what Sentinel
counts, enabling hotness-ordered migration and co-allocation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.dnn.tensor import Tensor


@dataclass(frozen=True)
class TensorAccess:
    """One streaming access of an op over (part of) a tensor.

    Attributes:
        tensor: the tensor accessed.
        nbytes: bytes touched per pass (defaults to the whole tensor).
        is_write: write pass if True, read pass otherwise.
        passes: number of main-memory passes (>=1); e.g. a reduction that
            re-reads its input k times has ``passes=k``.
    """

    tensor: Tensor
    nbytes: int
    is_write: bool
    passes: int = 1

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError(
                f"access to {self.tensor.name!r} must touch positive bytes"
            )
        if self.nbytes > self.tensor.nbytes:
            raise ValueError(
                f"access touches {self.nbytes}B of {self.tensor.nbytes}B tensor "
                f"{self.tensor.name!r}"
            )
        if self.passes <= 0:
            raise ValueError(f"access to {self.tensor.name!r} needs passes >= 1")

    @property
    def total_bytes(self) -> int:
        return self.nbytes * self.passes


@dataclass
class Op:
    """A dataflow-graph node: compute cost plus memory accesses.

    Attributes:
        name: op label ("nn.conv2d", "transpose"...).
        flops: floating-point operations executed.
        accesses: memory access descriptors, in issue order.
        layer_index: owning layer; set when the builder seals the layer.
    """

    name: str
    flops: float
    accesses: List[TensorAccess] = field(default_factory=list)
    layer_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.flops < 0:
            raise ValueError(f"op {self.name!r} cannot have negative flops")

    def tensors(self) -> List[Tensor]:
        """Unique tensors referenced, in first-access order."""
        seen = {}
        for access in self.accesses:
            seen.setdefault(access.tensor.tid, access.tensor)
        return list(seen.values())

    @property
    def bytes_read(self) -> int:
        return sum(a.total_bytes for a in self.accesses if not a.is_write)

    @property
    def bytes_written(self) -> int:
        return sum(a.total_bytes for a in self.accesses if a.is_write)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Op({self.name!r}, L{self.layer_index}, {len(self.accesses)} accesses)"
