"""Plain-text reporting for experiment results."""

from repro.reporting.ascii_plots import ascii_cdf, ascii_histogram, sparkline
from repro.reporting.report import generate_report, render_report
from repro.reporting.tables import format_cdf_table, format_summary, format_table

__all__ = [
    "format_table",
    "format_cdf_table",
    "format_summary",
    "ascii_cdf",
    "ascii_histogram",
    "sparkline",
    "generate_report",
    "render_report",
]
