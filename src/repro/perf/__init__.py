"""Performance instrumentation: counters and paper-style reports."""

from repro.perf.counters import CounterSet
from repro.perf.report import Table, format_speedup, format_seconds

__all__ = [
    "CounterSet",
    "Table",
    "format_speedup",
    "format_seconds",
]
