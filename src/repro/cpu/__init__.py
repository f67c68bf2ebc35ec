"""Processor substrate: columnar traces and the interval core model."""

from .core import miss_columns
from .trace import Trace

__all__ = ["Trace", "miss_columns"]
