"""Reproduction harness: per-figure sweeps, paper-claim shape checks,
analytical-vs-simulation cross-validation, the sub-block study, and
plain-text rendering."""

from repro.experiments.checks import ClaimCheck, check_figure
from repro.experiments.figures import (
    ALL_FIGURES,
    DEFAULTS,
    FigureResult,
    FigureSeries,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11a,
    figure11b,
)
from repro.experiments.extension_figures import (
    ALL_EXTENSION_FIGURES,
    extension_associativity,
    extension_bandwidth,
    extension_missratio,
    extension_utilization,
)
from repro.experiments.render import render_figure, render_table
from repro.experiments.report import build_report, write_report
from repro.experiments.simulated_figures import (
    figure7_simulated,
    figure8_simulated,
)
from repro.experiments.stats import Summary, summarize
from repro.experiments.subblock_study import SubblockRow, subblock_study
from repro.experiments.validation import (
    ValidationPoint,
    validate_point,
    validation_grid,
)

__all__ = [
    "ALL_EXTENSION_FIGURES",
    "ALL_FIGURES",
    "ClaimCheck",
    "DEFAULTS",
    "FigureResult",
    "FigureSeries",
    "SubblockRow",
    "Summary",
    "ValidationPoint",
    "build_report",
    "extension_associativity",
    "extension_bandwidth",
    "extension_missratio",
    "extension_utilization",
    "check_figure",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure7_simulated",
    "figure8",
    "figure8_simulated",
    "figure9",
    "figure10",
    "figure11a",
    "figure11b",
    "render_figure",
    "render_table",
    "subblock_study",
    "summarize",
    "validate_point",
    "validation_grid",
    "write_report",
]
