"""Utilities: lines-of-code accounting (Table I)."""

from repro.util.loc import count_loc, loc_table

__all__ = ["count_loc", "loc_table"]
