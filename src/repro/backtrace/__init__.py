"""Back-tracing congestion metrics to IR operations (paper Fig. 3)."""

from repro.backtrace.trace import BacktraceResult, Backtracer

__all__ = ["BacktraceResult", "Backtracer"]
