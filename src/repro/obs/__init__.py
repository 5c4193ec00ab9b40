"""Deterministic observability for the BrAID bridge.

* :class:`~repro.obs.tracer.Tracer` — hierarchical spans and events
  stamped with simulated time; :meth:`Tracer.disabled` is the zero-cost
  opt-out every component defaults to.
* :mod:`repro.obs.export` — the canonical JSON encoder every
  fingerprinted artifact is written with, and the trace JSONL format:
  writer, SHA-256 fingerprint, reader and renderer (same seed → same
  bytes).
* :mod:`repro.obs.profile` — trace-driven critical-path profiler
  attributing each query's simulated time to phases.
"""

from repro.obs.export import (
    jsonl_trace,
    trace_fingerprint,
)
from repro.obs.profile import PHASES, QueryProfile, TraceProfile, profile_trace
from repro.obs.tracer import Span, SpanEvent, Tracer

__all__ = [
    "PHASES",
    "QueryProfile",
    "Span",
    "SpanEvent",
    "TraceProfile",
    "Tracer",
    "jsonl_trace",
    "profile_trace",
    "trace_fingerprint",
]
