"""Query tracing and attributed profiling.

The paper attributes an entire run's processor time to microarchitectural
causes; this package attributes it *per operator*.  A
:class:`~repro.observability.trace.Tracer` (installed by the session when
``tracing != "off"``) brackets every operator pull, planner/setup phase,
shared-scan replay and spill I/O in a counter span -- a snapshot-delta capture
of the simulated event banks -- and assembles the spans into a per-query
trace tree whose nodes each carry the Figure 5.x stall decomposition.
Exporters render the tree as text (``scripts/run_trace.py``), JSON and
Chrome ``trace_event`` format.

Tracing is observation only: snapshots read the live hardware state
between charges and never issue one, so result rows and every simulated
count are identical across ``off``/``spans``/``full`` (differentially
tested in ``tests/test_observability.py``).
"""

from .export import chrome_trace, chrome_trace_json, render_trace, trace_to_dict
from .spans import CounterSnapshot, DERIVED_EVENTS, capture_snapshot, synthesize_counters
from .trace import TraceNode, Tracer

__all__ = [
    "CounterSnapshot", "DERIVED_EVENTS", "capture_snapshot",
    "synthesize_counters", "TraceNode", "Tracer",
    "render_trace", "trace_to_dict", "chrome_trace", "chrome_trace_json",
]
