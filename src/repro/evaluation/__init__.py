"""Regeneration of the paper's tables and figures, plus report formatting."""

from repro.evaluation.report import format_table, format_markdown_table
from repro.evaluation.tables import (
    l3_coverage_table,
    regenerate_table1,
    regenerate_table2,
    regenerate_table3,
    regenerate_table4,
    regenerate_table5,
)
from repro.evaluation.figures import (
    figure4_confusion_matrix,
    figure5_training_scaling,
    figure6_7_classification_comparison,
    figure8_9_sea_surface_comparison,
    figure10_11_freeboard_comparison,
    figure_l3_grid_map,
    figure_tile_map,
)

__all__ = [
    "format_table",
    "format_markdown_table",
    "l3_coverage_table",
    "regenerate_table1",
    "regenerate_table2",
    "regenerate_table3",
    "regenerate_table4",
    "regenerate_table5",
    "figure4_confusion_matrix",
    "figure5_training_scaling",
    "figure6_7_classification_comparison",
    "figure8_9_sea_surface_comparison",
    "figure10_11_freeboard_comparison",
    "figure_l3_grid_map",
    "figure_tile_map",
]
