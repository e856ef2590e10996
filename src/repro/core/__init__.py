"""Sentinel: the paper's runtime system.

* :mod:`repro.core.profile` — the tensor-level profile data model.
* :mod:`repro.core.profiler` — dynamic profiling via page-aligned allocation
  and PTE poisoning, coordinated between the (simulated) OS and the runtime.
* :mod:`repro.core.interval` — the migration-interval performance model
  (Equations 1 and 2).
* :mod:`repro.core.runtime` — the Sentinel placement policy for CPU-style
  heterogeneous memory (DRAM + Optane).
* :mod:`repro.core.gpu` — Sentinel-GPU: pinned-memory profiling and
  residency-required migration.
"""

from repro.core.profile import Profile, TensorProfile
from repro.core.profiler import DynamicProfiler
from repro.core.interval import IntervalPlan, choose_interval_length, partition_layers
from repro.core.runtime import SentinelConfig, SentinelPolicy
from repro.core.gpu import SentinelGPUPolicy
from repro.core.buckets import MAX_BUCKETS, BucketedSentinel, bucketize

__all__ = [
    "Profile",
    "TensorProfile",
    "DynamicProfiler",
    "IntervalPlan",
    "choose_interval_length",
    "partition_layers",
    "SentinelConfig",
    "SentinelPolicy",
    "SentinelGPUPolicy",
    "BucketedSentinel",
    "bucketize",
    "MAX_BUCKETS",
]
