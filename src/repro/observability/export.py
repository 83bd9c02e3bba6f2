"""Trace-tree exporters: text, JSON, and Chrome ``trace_event`` format.

Three consumers, three shapes:

* :func:`render_trace` -- the human-facing text tree
  (``scripts/run_trace.py``): per node, self/inclusive cycles, rows,
  pulls, and the Figure 5.x stall decomposition of the node's *self*
  delta, so "where does time go?" is answered per operator.
* :func:`trace_to_dict` -- JSON-serialisable nesting (``run_trace.py
  --json``) and programmatic use.
* :func:`chrome_trace` -- ``chrome://tracing`` / Perfetto "complete"
  (``ph: "X"``) events.  Timestamps are host wall-clock (a node's span is
  first pull start to last pull end, children nested within parents by
  construction); simulated cycle totals ride along in ``args``.
"""

from __future__ import annotations

import json
from typing import List, Optional

from ..analysis.breakdown import GROUPS
from .trace import TraceNode

__all__ = ["render_trace", "trace_to_dict", "chrome_trace",
           "chrome_trace_json"]


def _cycles(counters) -> int:
    return counters.get("CPU_CLK_UNHALTED")


def _node_summary(node: TraceNode, processor) -> dict:
    inclusive = node.inclusive_counters(processor)
    self_counters = node.self_counters(processor)
    return {"inclusive": inclusive, "self": self_counters,
            "inclusive_cycles": _cycles(inclusive),
            "self_cycles": _cycles(self_counters)}


def render_trace(root: TraceNode, spec, processor,
                 show_breakdown: bool = True) -> str:
    """Render the trace tree as an indented text report."""
    lines: List[str] = []
    for depth, node in root.walk():
        summary = _node_summary(node, processor)
        indent = "  " * depth
        parts = [f"{indent}{node.name}",
                 f"self={summary['self_cycles']:,} cyc",
                 f"incl={summary['inclusive_cycles']:,} cyc"]
        if node.rows:
            parts.append(f"rows={node.rows:,}")
        if node.pulls:
            parts.append(f"pulls={node.pulls:,}")
        if node.host_seconds:
            parts.append(f"host={node.host_seconds * 1e3:.2f}ms")
        io = node.self_io_stats()
        if io.get("page_reads") or io.get("page_writes"):
            parts.append(f"io={io.get('page_reads', 0)}r/"
                         f"{io.get('page_writes', 0)}w")
        lines.append("  ".join(parts))
        if show_breakdown:
            breakdown = node.breakdown(spec, processor)
            if breakdown is not None:
                shares = breakdown.shares()
                lines.append("  " * (depth + 1) + "| " + "  ".join(
                    f"{group}={shares[group] * 100:.1f}%"
                    for group in GROUPS))
    return "\n".join(lines) + "\n"


def trace_to_dict(node: TraceNode, spec, processor,
                  include_counters: bool = False) -> dict:
    """JSON-serialisable nesting of the trace tree."""
    summary = _node_summary(node, processor)
    breakdown = node.breakdown(spec, processor)
    out: dict = {
        "name": node.name,
        "kind": node.kind,
        "pulls": node.pulls,
        "rows": node.rows,
        "host_seconds": round(node.host_seconds, 9),
        "self_cycles": summary["self_cycles"],
        "inclusive_cycles": summary["inclusive_cycles"],
    }
    if node.meta:
        out["meta"] = dict(node.meta)
    io = node.self_io_stats()
    if io:
        out["io_stats"] = io
    if breakdown is not None:
        out["breakdown"] = {name: round(value, 3) for name, value
                            in breakdown.components.items()}
        out["shares"] = {name: round(value, 6) for name, value
                         in breakdown.shares().items()}
    if include_counters:
        out["counters"] = {event: count for event, count
                           in summary["self"].as_dict().items() if count}
    if node.events:
        out["events"] = [list(event) for event in node.events]
        if node.events_dropped:
            out["events_dropped"] = node.events_dropped
    if node.children:
        out["children"] = [trace_to_dict(child, spec, processor,
                                         include_counters=include_counters)
                           for child in node.children]
    return out


def chrome_trace(root: TraceNode, spec, processor) -> dict:
    """The trace tree as Chrome ``trace_event`` "complete" events.

    Load the JSON in ``chrome://tracing`` (or https://ui.perfetto.dev):
    every node with observed host time becomes one ``X`` event whose
    nesting mirrors the operator tree, with simulated cycles in ``args``.
    """
    base = root.first_host or 0.0
    events = []
    for _, node in root.walk():
        if node.first_host is None or node.last_host is None:
            continue
        summary = _node_summary(node, processor)
        args = {"self_cycles": summary["self_cycles"],
                "inclusive_cycles": summary["inclusive_cycles"],
                "pulls": node.pulls, "rows": node.rows}
        if node.meta:
            args.update({key: value for key, value in node.meta.items()
                         if isinstance(value, (str, int, float))})
        breakdown = node.breakdown(spec, processor)
        if breakdown is not None:
            shares = breakdown.shares()
            args.update({f"share_{group}": round(shares[group], 4)
                         for group in GROUPS})
        events.append({
            "name": node.name,
            "cat": node.kind,
            "ph": "X",
            "ts": (node.first_host - base) * 1e6,
            "dur": max(node.last_host - node.first_host, 0.0) * 1e6,
            "pid": 0,
            "tid": 0,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(root: TraceNode, spec, processor,
                      indent: Optional[int] = None) -> str:
    return json.dumps(chrome_trace(root, spec, processor), indent=indent)
