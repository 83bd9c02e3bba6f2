"""Text rendering of the paper's figures and tables.

The original figures are stacked bar charts; a terminal reproduction renders
each one as an aligned text table (systems as columns, components as rows,
values as percentages) plus, where useful, a crude horizontal bar.  The
benchmark harness prints these tables so a run of ``pytest benchmarks/``
regenerates every figure in readable form.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def format_percentage(value: float) -> str:
    return f"{100.0 * value:5.1f}%"


def format_table(title: str,
                 row_labels: Sequence[str],
                 column_labels: Sequence[str],
                 values: Mapping[str, Mapping[str, float]],
                 formatter=format_percentage,
                 row_header: str = "") -> str:
    """Render ``values[column][row]`` as an aligned text table.

    Missing cells render as ``-`` (e.g. System A's indexed range selection,
    which the paper omits because A did not use the index).
    """
    label_width = max([len(row_header)] + [len(label) for label in row_labels]) + 2
    column_width = max([8] + [len(label) + 2 for label in column_labels])
    lines = [title, "=" * len(title)]
    header = " " * label_width + "".join(f"{label:>{column_width}}" for label in column_labels)
    lines.append(header)
    for row in row_labels:
        cells = []
        for column in column_labels:
            cell = values.get(column, {})
            if row in cell and cell[row] is not None:
                cells.append(f"{formatter(cell[row]):>{column_width}}")
            else:
                cells.append(f"{'-':>{column_width}}")
        lines.append(f"{row:<{label_width}}" + "".join(cells))
    return "\n".join(lines)


def format_stacked_bars(title: str,
                        series: Mapping[str, Mapping[str, float]],
                        component_order: Sequence[str],
                        width: int = 50,
                        symbols: str = "#*+=~.") -> str:
    """Render normalised stacked bars, one per key of ``series``.

    Each component gets a symbol; the legend maps symbols back to component
    names.  This is the closest a text terminal gets to Figure 5.1/5.2.
    """
    lines = [title, "=" * len(title)]
    legend = "  ".join(f"{symbols[i % len(symbols)]}={name}"
                       for i, name in enumerate(component_order))
    lines.append(f"legend: {legend}")
    label_width = max(len(label) for label in series) + 2
    for label, components in series.items():
        total = sum(components.get(name, 0.0) for name in component_order)
        if total <= 0:
            lines.append(f"{label:<{label_width}}(empty)")
            continue
        bar = ""
        for i, name in enumerate(component_order):
            share = components.get(name, 0.0) / total
            bar += symbols[i % len(symbols)] * int(round(share * width))
        lines.append(f"{label:<{label_width}}|{bar[:width]:<{width}}|")
    return "\n".join(lines)


def format_key_values(title: str, values: Mapping[str, object]) -> str:
    """Render a flat mapping as an aligned two-column listing."""
    lines = [title, "=" * len(title)]
    width = max(len(str(key)) for key in values) + 2
    for key, value in values.items():
        if isinstance(value, float):
            rendered = f"{value:,.3f}"
        else:
            rendered = str(value)
        lines.append(f"{key:<{width}}{rendered}")
    return "\n".join(lines)
