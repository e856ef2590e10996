"""Heterogeneous-memory substrate.

This package simulates the machine Sentinel runs on: two memory devices with
different bandwidths (DRAM + Optane PMM, or GPU HBM + CPU DRAM), an OS-style
page table whose entries carry the reserved poison bit Sentinel uses for
access counting (PTE bit 51 in the paper), a TLB, a protection-fault handler,
the hardware DRAM cache of Optane's Memory Mode, and an asynchronous
page-migration engine modelled on ``move_pages()`` with two helper threads
(one per direction).
"""

from repro.mem.devices import DeviceKind, DeviceSpec, MemoryDevice
from repro.mem.platforms import Platform, OPTANE_HM, GPU_HM, CXL_HM, GPU_A100_HM
from repro.mem.page import PAGE_SIZE, PageTableEntry, PageTable
from repro.mem.tlb import TLB
from repro.mem.faults import FaultHandler
from repro.mem.cache import DRAMCache
from repro.mem.migration import MigrationEngine
from repro.mem.energy import EnergyBreakdown, EnergySpec, GPU_ENERGY, OPTANE_ENERGY, estimate_step_energy
from repro.mem.machine import Machine

__all__ = [
    "DeviceKind",
    "DeviceSpec",
    "MemoryDevice",
    "Platform",
    "OPTANE_HM",
    "GPU_HM",
    "CXL_HM",
    "GPU_A100_HM",
    "PAGE_SIZE",
    "PageTableEntry",
    "PageTable",
    "TLB",
    "FaultHandler",
    "DRAMCache",
    "MigrationEngine",
    "Machine",
    "EnergySpec",
    "EnergyBreakdown",
    "OPTANE_ENERGY",
    "GPU_ENERGY",
    "estimate_step_energy",
]
