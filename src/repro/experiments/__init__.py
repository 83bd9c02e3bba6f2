"""Experiment harness: shared runner plus one function per reproduced figure/table."""

from .figures import (FigureResult, engine_ablation, figure_5_1, figure_5_2,
                      figure_5_3, figure_5_4_left, figure_5_4_right,
                      figure_5_5, figure_5_6, figure_5_7, figure_adaptivity,
                      headline_claims, record_size_sweep, table_4_1, table_4_2,
                      tpcc_summary)
from .runner import (Cell, ExperimentConfig, ExperimentRunner, QUERY_KINDS,
                     TPCCResult, TPCD_SYSTEMS, adaptive_cell)

__all__ = [
    "FigureResult", "engine_ablation", "figure_5_1", "figure_5_2", "figure_5_3",
    "figure_5_4_left", "figure_5_4_right", "figure_5_5", "figure_5_6", "figure_5_7",
    "figure_adaptivity", "headline_claims", "record_size_sweep", "table_4_1", "table_4_2",
    "tpcc_summary",
    "Cell", "ExperimentConfig", "ExperimentRunner", "QUERY_KINDS", "TPCCResult",
    "TPCD_SYSTEMS", "adaptive_cell",
]
