"""CSV and plot emitters for the reproduction artifact.

The artifact pipeline (:mod:`repro.experiments.artifact`, driven by
``scripts/run_artifact.py``) measures every figure once and persists the
structured :class:`~repro.experiments.figures.FigureResult` data as JSON;
this module turns that JSON into the per-figure CSV files, compares two
sets of them cell by cell (:func:`diff_table`, the count gate) and, when
matplotlib happens to be installed, renders PNG charts.  matplotlib
is strictly optional: :func:`matplotlib_available` gates the plot stage and
everything else is pure standard library.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

Scalar = Union[int, float, str]
Row = Tuple[Scalar, ...]


def flatten(data: Dict, depth: int) -> List[Row]:
    """Flatten a uniformly nested figure-data dict into key-path rows.

    Every figure's ``data`` is a nested mapping of uniform depth whose
    leaves are scalars; ``depth`` is the number of key levels.  Each
    returned row is ``(key_1, ..., key_depth, value)``, in the mapping's
    (insertion) order, so CSV output is deterministic for a deterministic
    measurement.
    """
    rows: List[Row] = []

    def walk(node, prefix: Tuple[Scalar, ...]) -> None:
        if len(prefix) == depth:
            if isinstance(node, dict):
                raise ValueError(
                    f"figure data deeper than declared depth {depth} at {prefix!r}")
            rows.append(prefix + (node,))
            return
        if not isinstance(node, dict):
            raise ValueError(
                f"figure data shallower than declared depth {depth} at {prefix!r}")
        for key, child in node.items():
            walk(child, prefix + (key,))

    walk(data, ())
    return rows


def write_csv(path: Path, columns: Sequence[str], rows: Sequence[Row]) -> None:
    """Write one figure's flattened rows as CSV (header + data rows)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(columns))
        writer.writerows(rows)


def read_csv(path: Path) -> Tuple[List[str], List[List[str]]]:
    """One CSV's header and data rows, every cell as written."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return (rows[0] if rows else []), rows[1:]


def _number(text: str) -> Optional[float]:
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return None


def diff_table(name: str, before: Tuple[List[str], List[List[str]]],
               after: Tuple[List[str], List[List[str]]]) -> List[str]:
    """Every difference between two versions of one flattened CSV.

    A row is identified by its key path (every column but the last); its
    value must be string-equal on both sides.  Returns one line per
    changed header, missing, extra or duplicated row, changed value (with
    the numeric delta when both sides parse as numbers) and reordering.
    """
    (header, rows), (other_header, other_rows) = before, after
    if header != other_header:
        return [f"{name}: header {header} -> {other_header}"]
    column = header[-1] if header else "value"
    keyed, other_keyed = _keyed(rows), _keyed(other_rows)
    lines = [f"{name}: duplicate row keys {side}"
             for side, table, count in (("before", keyed, len(rows)),
                                        ("after", other_keyed, len(other_rows)))
             if len(table) != count]
    for key, old in keyed.items():
        where = f"{name} [{', '.join(key)}]"
        new = other_keyed.get(key)
        if new is None:
            lines.append(f"{where}: row missing")
        elif new != old:
            delta = ""
            if _number(old) is not None and _number(new) is not None:
                change = _number(new) - _number(old)
                delta = (f" ({change:+d})" if isinstance(change, int)
                         else f" ({change:+.6g})")
            lines.append(f"{where} {column}: {old} -> {new}{delta}")
    lines.extend(f"{name} [{', '.join(key)}]: extra row"
                 for key in other_keyed if key not in keyed)
    if not lines and list(keyed) != list(other_keyed):
        lines.append(f"{name}: rows in a different order")
    return lines


def _keyed(rows: List[List[str]]) -> Dict[Tuple[str, ...], str]:
    """Rows by key path (every cell but the last) -> the last cell."""
    return {tuple(row[:-1]): (row[-1] if row else "") for row in rows}


def read_raw(path: Path) -> Dict[str, Dict]:
    """Load the ``run_all`` stage's raw measurement JSON."""
    with open(path) as handle:
        return json.load(handle)


def write_raw(path: Path, raw: Dict[str, Dict]) -> None:
    """Persist the raw measurement data (figure name -> title/data/text)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(raw, handle, indent=1, sort_keys=False)
        handle.write("\n")


def matplotlib_available() -> bool:
    """True when the optional plotting dependency can be imported."""
    try:  # pragma: no cover - exercised only where matplotlib exists
        import matplotlib  # noqa: F401
    except ImportError:
        return False
    return True  # pragma: no cover


def render_plot(name: str, title: str, columns: Sequence[str],
                rows: Sequence[Row], path: Path) -> bool:
    """Render one figure's rows as a horizontal bar chart PNG.

    Returns False (writing nothing) when matplotlib is unavailable or the
    figure's values are non-numeric (the method tables); the CSV remains
    the canonical artifact either way.
    """
    if not matplotlib_available():
        return False
    numeric = [row for row in rows
               if isinstance(row[-1], (int, float))
               and not isinstance(row[-1], bool)]
    if not numeric:
        return False
    import matplotlib  # pragma: no cover - optional dependency
    matplotlib.use("Agg")  # pragma: no cover
    import matplotlib.pyplot as plt  # pragma: no cover

    labels = [" / ".join(str(key) for key in row[:-1]) for row in numeric]  # pragma: no cover
    values = [float(row[-1]) for row in numeric]  # pragma: no cover
    height = max(2.0, 0.28 * len(numeric) + 1.2)  # pragma: no cover
    fig, axis = plt.subplots(figsize=(10, height))  # pragma: no cover
    axis.barh(range(len(values)), values)  # pragma: no cover
    axis.set_yticks(range(len(values)))  # pragma: no cover
    axis.set_yticklabels(labels, fontsize=7)  # pragma: no cover
    axis.invert_yaxis()  # pragma: no cover
    axis.set_xlabel(columns[-1])  # pragma: no cover
    axis.set_title(f"{name}: {title}")  # pragma: no cover
    fig.tight_layout()  # pragma: no cover
    path.parent.mkdir(parents=True, exist_ok=True)  # pragma: no cover
    fig.savefig(path, dpi=120)  # pragma: no cover
    plt.close(fig)  # pragma: no cover
    return True  # pragma: no cover
