"""Sliding-window SLO monitors over simulated latencies.

An :class:`SLOMonitor` watches per-scope latency streams (one scope per
server session) against an :class:`SLOPolicy` (a p99 target).  Windowing
is deterministic: observations are stamped with simulated time, and a
window keeps exactly the observations with ``t > now - window_seconds`` —
same seed, same evictions, same percentiles.

Breaches are **edge-triggered**: when the p99 first exceeds its target
the monitor emits one ``slo.breach`` trace event and bumps the
:data:`~repro.common.metrics.SLO_BREACHES` counter; while the scope stays
in breach nothing further is emitted, and recovery (the p99 dropping back
under target with enough samples) emits ``slo.recovered`` and re-arms the
trigger.  Percentiles reuse the ledger's nearest-rank
:class:`~repro.common.metrics.Histogram`, so an SLO evaluation and a
histogram summary can never disagree about what "p99" means.

The monitor never touches the clock: observing is bookkeeping, not work.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.common.clock import SimClock
from repro.common.metrics import SLO_BREACHES, Histogram, Metrics


@dataclass(frozen=True)
class SLOPolicy:
    """The latency objective of one monitor: a p99 target."""

    p99_seconds: float
    #: Sliding window length in simulated seconds.
    window_seconds: float = 60.0
    #: Percentiles are not evaluated until a window holds this many
    #: observations (a single slow request is not a p99 signal).
    min_samples: int = 5

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError("SLO window must be positive")
        if self.min_samples < 1:
            raise ValueError("SLO min_samples must be at least 1")


class _Window:
    """One scope's sliding window of (time, latency) observations."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: deque[tuple[float, float]] = deque()

    def add(self, t: float, value: float) -> None:
        self.entries.append((t, value))

    def prune(self, now: float, window_seconds: float) -> None:
        cutoff = now - window_seconds
        while self.entries and self.entries[0][0] <= cutoff:
            self.entries.popleft()

    def histogram(self) -> Histogram:
        h = Histogram()
        for _t, value in self.entries:
            h.observe(value)
        return h


class SLOMonitor:
    """Evaluates one policy over many named scopes."""

    def __init__(
        self,
        policy: SLOPolicy,
        clock: SimClock,
        metrics: Metrics | None = None,
        tracer=None,
    ):
        self.policy = policy
        self.clock = clock
        self.metrics = metrics if metrics is not None else Metrics()
        if tracer is None:
            from repro.obs.tracer import Tracer

            tracer = Tracer.disabled()
        self.tracer = tracer
        self._windows: dict[str, _Window] = {}
        #: Armed/breached state per scope.
        self._breached: dict[str, bool] = {}
        self.breach_count = 0

    # -- observation --------------------------------------------------------------
    def observe(self, scope: str, latency_seconds: float) -> None:
        """Record one latency for ``scope`` and re-evaluate its window."""
        now = self.clock.now
        window = self._windows.get(scope)
        if window is None:
            window = self._windows[scope] = _Window()
        window.add(now, latency_seconds)
        window.prune(now, self.policy.window_seconds)
        self._evaluate(scope, window, now)

    def _evaluate(self, scope: str, window: _Window, now: float) -> None:
        if len(window.entries) < self.policy.min_samples:
            return
        value = window.histogram().percentile(99)
        target = self.policy.p99_seconds
        breached = value > target
        was = self.in_breach(scope)
        if breached == was:
            return
        self._breached[scope] = breached
        if breached:
            self.breach_count += 1
            self.metrics.incr(SLO_BREACHES)
        self.tracer.event(
            "slo.breach" if breached else "slo.recovered",
            scope=scope,
            percentile=99,
            value=value,
            target=target,
            samples=len(window.entries),
        )

    # -- reporting ----------------------------------------------------------------
    def in_breach(self, scope: str) -> bool:
        """True while the scope's p99 sits above its target."""
        return self._breached.get(scope, False)

    def report(self) -> dict[str, dict[str, float]]:
        """Current per-scope window statistics (deterministic order)."""
        out: dict[str, dict[str, float]] = {}
        for scope in sorted(self._windows):
            histogram = self._windows[scope].histogram()
            out[scope] = {
                "samples": histogram.count,
                "p50": histogram.percentile(50),
                "p99": histogram.percentile(99),
                "breach_p99": self.in_breach(scope),
            }
        return out
