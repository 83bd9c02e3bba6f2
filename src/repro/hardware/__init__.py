"""Simulated processor and memory-hierarchy substrate.

This package models the hardware platform of the paper's experiments -- a
Pentium II Xeon with split 16 KB L1 caches, a unified 512 KB L2, small TLBs, a
BTB-based branch predictor and an out-of-order core -- at the level of detail
needed to regenerate the paper's hardware-counter measurements from the
reference stream a database engine produces.
"""

from .branch import BranchPredictor, BranchStats
from .cache import (Cache, CacheHierarchy, CacheStats, HierarchyStats,
                    PORT_DATA_READ, PORT_DATA_WRITE, PORT_INSTRUCTION)
from .counters import (EVENT_DESCRIPTIONS, EVENT_NAMES, EventCounters, MODE_SUP,
                       MODE_USER, UnknownEventError)
from .memory import MainMemory, MemoryStats
from .os_interference import OSInterference, OSInterferenceConfig
from .pipeline import CycleBreakdown, CycleModel, OverlapModel
from .processor import SimulatedProcessor
from .specs import (BranchSpec, CacheSpec, MemorySpec, PENTIUM_II_XEON,
                    PipelineSpec, ProcessorSpec, TLBSpec, larger_btb_xeon,
                    larger_l2_xeon, pentium_ii_xeon)
from .tlb import TLB, TLBStats

__all__ = [
    "BranchPredictor", "BranchStats",
    "Cache", "CacheHierarchy", "CacheStats", "HierarchyStats",
    "PORT_DATA_READ", "PORT_DATA_WRITE", "PORT_INSTRUCTION",
    "EVENT_DESCRIPTIONS", "EVENT_NAMES", "EventCounters", "MODE_SUP", "MODE_USER",
    "UnknownEventError",
    "MainMemory", "MemoryStats",
    "OSInterference", "OSInterferenceConfig",
    "CycleBreakdown", "CycleModel", "OverlapModel",
    "SimulatedProcessor",
    "BranchSpec", "CacheSpec", "MemorySpec", "PENTIUM_II_XEON", "PipelineSpec",
    "ProcessorSpec", "TLBSpec", "larger_btb_xeon", "larger_l2_xeon", "pentium_ii_xeon",
    "TLB", "TLBStats",
]
