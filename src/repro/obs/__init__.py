"""Deterministic observability for the BrAID bridge.

* :class:`~repro.obs.tracer.Tracer` — hierarchical spans and events
  stamped with simulated time; :meth:`Tracer.disabled` is the zero-cost
  opt-out every component defaults to.
* :mod:`repro.obs.export` — the canonical JSON encoder every
  fingerprinted artifact is written with, and the trace JSONL format:
  writer, SHA-256 fingerprint, reader and renderer (same seed → same
  bytes).
* :mod:`repro.obs.telemetry` — fixed-cadence time-series sampling of the
  metrics ledger (counter deltas, gauges, histogram percentiles).
* :mod:`repro.obs.profile` — trace-driven critical-path profiler
  attributing each query's simulated time to phases.
* :mod:`repro.obs.slo` — sliding-window p50/p99 SLO monitors with
  edge-triggered breach events.
"""

from repro.obs.export import (
    jsonl_trace,
    trace_fingerprint,
)
from repro.obs.profile import PHASES, QueryProfile, TraceProfile, profile_trace
from repro.obs.slo import SLOMonitor, SLOPolicy
from repro.obs.telemetry import (
    MetricsSampler,
    TelemetrySample,
    dump_series,
    load_series,
)
from repro.obs.tracer import Span, SpanEvent, Tracer

__all__ = [
    "MetricsSampler",
    "PHASES",
    "QueryProfile",
    "SLOMonitor",
    "SLOPolicy",
    "Span",
    "SpanEvent",
    "TelemetrySample",
    "TraceProfile",
    "Tracer",
    "dump_series",
    "jsonl_trace",
    "load_series",
    "profile_trace",
    "trace_fingerprint",
]
