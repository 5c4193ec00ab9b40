"""Sliding-window SLO monitors: deterministic windowing, edge-triggered
breach/recovery, and the ledger/trace side effects."""

import json

import pytest

from repro.common.clock import SimClock
from repro.common.metrics import SLO_BREACHES, Metrics
from repro.obs.slo import SLOMonitor, SLOPolicy
from repro.obs.tracer import Tracer


def make(policy: SLOPolicy | None = None, tracing: bool = False):
    clock = SimClock()
    metrics = Metrics()
    tracer = Tracer(clock) if tracing else None
    monitor = SLOMonitor(
        policy or SLOPolicy(p99_seconds=1.0, min_samples=3, window_seconds=10.0),
        clock,
        metrics,
        tracer,
    )
    return clock, metrics, monitor


class TestPolicy:
    def test_rejects_bad_window_and_min_samples(self):
        with pytest.raises(ValueError):
            SLOPolicy(p99_seconds=1.0, window_seconds=0.0)
        with pytest.raises(ValueError):
            SLOPolicy(p99_seconds=1.0, min_samples=0)

    def test_the_p99_target_is_required(self):
        with pytest.raises(TypeError):
            SLOPolicy()


class TestBreachDetection:
    def test_no_evaluation_below_min_samples(self):
        _clock, metrics, monitor = make()
        monitor.observe("s", 100.0)
        monitor.observe("s", 100.0)
        assert not monitor.in_breach("s")
        assert metrics.get(SLO_BREACHES) == 0

    def test_breach_is_edge_triggered_once(self):
        _clock, metrics, monitor = make()
        for _ in range(6):
            monitor.observe("s", 5.0)  # every observation over target
        assert monitor.in_breach("s")
        assert metrics.get(SLO_BREACHES) == 1  # one edge, not six
        assert monitor.breach_count == 1

    def test_recovery_rearms_the_trigger(self):
        clock, metrics, monitor = make(
            SLOPolicy(p99_seconds=1.0, min_samples=3, window_seconds=2.0)
        )
        for _ in range(3):
            monitor.observe("s", 5.0)
        assert monitor.in_breach("s")
        # Slow observations age out of the 2s window; fast ones replace them.
        clock.advance(3.0)
        for _ in range(3):
            monitor.observe("s", 0.1)
        assert not monitor.in_breach("s")
        for _ in range(3):
            monitor.observe("s", 5.0)
        assert monitor.in_breach("s")
        assert metrics.get(SLO_BREACHES) == 2  # re-armed after recovery

    def test_scopes_are_independent(self):
        _clock, _metrics, monitor = make()
        for _ in range(3):
            monitor.observe("slow", 5.0)
            monitor.observe("fast", 0.1)
        assert monitor.in_breach("slow")
        assert not monitor.in_breach("fast")

    def test_windowing_is_by_simulated_time(self):
        clock, _metrics, monitor = make(
            SLOPolicy(p99_seconds=1.0, min_samples=2, window_seconds=5.0)
        )
        monitor.observe("s", 9.0)
        clock.advance(6.0)  # the slow sample ages out
        monitor.observe("s", 0.1)
        monitor.observe("s", 0.1)
        assert not monitor.in_breach("s")
        assert monitor.report()["s"]["samples"] == 2


class TestSideEffects:
    def test_breach_and_recovery_emit_trace_events(self):
        clock, _metrics, monitor = make(
            SLOPolicy(p99_seconds=1.0, min_samples=2, window_seconds=2.0),
            tracing=True,
        )
        for _ in range(2):
            monitor.observe("s", 5.0)
        clock.advance(3.0)
        for _ in range(2):
            monitor.observe("s", 0.1)
        events = [
            json.loads(line)
            for line in monitor.tracer.to_jsonl().splitlines()
            if '"event"' in line
        ]
        names = [e["event"] for e in events]
        assert names == ["slo.breach", "slo.recovered"]
        breach = events[0]["attributes"]
        assert breach["scope"] == "s"
        assert breach["percentile"] == 99
        assert breach["value"] == pytest.approx(5.0)
        assert breach["target"] == pytest.approx(1.0)

    def test_observation_never_advances_the_clock(self):
        clock, metrics, monitor = make()
        before = clock.now
        for _ in range(10):
            monitor.observe("s", 5.0)
        assert clock.now == before
        # The only ledger side effect is the breach counter itself.
        assert metrics.snapshot() == {SLO_BREACHES: 1}


class TestReporting:
    def test_report_orders_scopes_and_flags_breaches(self):
        _clock, _metrics, monitor = make()
        for _ in range(3):
            monitor.observe("b", 5.0)
            monitor.observe("a", 0.1)
        report = monitor.report()
        assert list(report) == ["a", "b"]
        assert report["b"]["breach_p99"] is True
        assert report["a"]["breach_p99"] is False
        assert report["a"]["samples"] == 3
