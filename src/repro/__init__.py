"""repro: a reproduction of "DBMSs on a Modern Processor: Where Does Time Go?".

The package rebuilds, in pure Python, the full measurement stack of Ailamaki,
DeWitt, Hill and Wood's VLDB 1999 study: a trace-driven model of the Pentium
II Xeon platform (caches, TLBs, branch prediction, event counters), an
in-memory relational engine parameterised by profiles of the four anonymous
commercial DBMSs, the microbenchmark / TPC-D-style / TPC-C-style workloads,
and the execution-time breakdown framework that is the paper's primary
contribution.

Typical usage::

    from repro import MicroWorkload, Session, SYSTEM_B

    workload = MicroWorkload()
    database = workload.build()
    workload.create_selection_index(database)
    session = Session(database, SYSTEM_B)
    result = session.execute(workload.sequential_range_selection(0.10))
    print(result.breakdown.shares())
"""

from .analysis import ExecutionBreakdown, QueryMetrics, compute_metrics
from .engine import Database, QueryResult, Session
from .experiments import ExperimentConfig, ExperimentRunner
from .hardware import PENTIUM_II_XEON, ProcessorSpec, SimulatedProcessor
from .systems import (ALL_SYSTEMS, SYSTEM_A, SYSTEM_B, SYSTEM_C, SYSTEM_D,
                      SystemProfile, system_by_key)
from .workloads import (MicroWorkload, MicroWorkloadConfig, TPCCConfig, TPCCWorkload,
                        TPCDConfig, TPCDWorkload)

__version__ = "1.0.0"

__all__ = [
    "ExecutionBreakdown", "QueryMetrics", "compute_metrics",
    "Database", "QueryResult", "Session",
    "ExperimentConfig", "ExperimentRunner",
    "PENTIUM_II_XEON", "ProcessorSpec", "SimulatedProcessor",
    "ALL_SYSTEMS", "SYSTEM_A", "SYSTEM_B", "SYSTEM_C", "SYSTEM_D", "SystemProfile",
    "system_by_key",
    "MicroWorkload", "MicroWorkloadConfig", "TPCCConfig", "TPCCWorkload",
    "TPCDConfig", "TPCDWorkload",
    "__version__",
]
