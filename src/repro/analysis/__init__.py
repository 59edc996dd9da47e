"""Competitive-ratio measurement, multi-seed trials, invariants and reporting."""

from repro.analysis.ascii_plot import ascii_line_plot, ascii_series_table
from repro.analysis.competitive import (
    CompetitiveRecord,
    evaluate_admission_algorithm,
    evaluate_admission_run,
    evaluate_fractional_run,
    evaluate_setcover_algorithm,
    evaluate_setcover_run,
)
from repro.analysis.invariants import (
    InvariantReport,
    check_admission_result,
    check_bicriteria_state,
    check_fractional_state,
)
from repro.analysis.report import format_kv, format_records, format_table
from repro.analysis.stats import SummaryStats, summarize

__all__ = [
    "ascii_line_plot",
    "ascii_series_table",
    "CompetitiveRecord",
    "evaluate_admission_algorithm",
    "evaluate_admission_run",
    "evaluate_fractional_run",
    "evaluate_setcover_algorithm",
    "evaluate_setcover_run",
    "InvariantReport",
    "check_admission_result",
    "check_bicriteria_state",
    "check_fractional_state",
    "format_kv",
    "format_records",
    "format_table",
    "SummaryStats",
    "summarize",
]
