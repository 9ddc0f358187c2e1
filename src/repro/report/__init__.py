"""Paper-style table and distribution formatting for benches and examples."""

from repro.report.corpus import span_row, stage_row
from repro.report.design_report import generate_design_report
from repro.report.diagnostics import format_diagnostics
from repro.report.execution import format_execution_lines, format_status_counts
from repro.report.manifest import format_run_report
from repro.report.sweep import format_sweep_report
from repro.report.tables import format_cdf, format_histogram, format_table

__all__ = [
    "format_cdf",
    "format_diagnostics",
    "format_execution_lines",
    "format_histogram",
    "format_run_report",
    "format_status_counts",
    "format_sweep_report",
    "format_table",
    "generate_design_report",
    "span_row",
    "stage_row",
]
