"""Analysis: tables, figure series, takeaway checks, efficiency summaries."""

from repro.analysis.efficiency import summarize
from repro.analysis.figures import fig9_component_share
from repro.analysis.takeaways import check_all, format_checks

__all__ = [
    "check_all",
    "fig9_component_share",
    "format_checks",
    "summarize",
]
