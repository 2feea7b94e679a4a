"""Experiment harness: table / series rendering."""

from .tables import format_series, format_table

__all__ = ["format_table", "format_series"]
