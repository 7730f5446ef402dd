"""Figure series and the tables that print them as the paper plots them."""

from repro.analysis.report import FigureSeries, format_latency_table, format_tps_table

__all__ = [
    "FigureSeries",
    "format_latency_table",
    "format_tps_table",
]
