"""Fault injection and resilience policies for the workstation–server link.

The paper treats the remote DBMS as "an independent system component"
reached over a real network (Ethernet to INGRES or an IDM-500) — a link
that can fail, stall, or drop a connection mid-result.  This module makes
those behaviours first-class and *deterministic*:

* :class:`FaultPolicy` — a seeded description of how often and how the
  link misbehaves (transient vs. permanent errors, latency stalls,
  mid-stream disconnects).
* :class:`FaultInjector` — draws one decision per remote request from a
  private ``random.Random(seed)``; the same seed and request sequence
  always produce the same faults, so every experiment is reproducible.
* :class:`RetryPolicy` — the client side: bounded retries, per-request
  timeouts, and circuit-breaker thresholds used by the resilient RDI;
  :func:`backoff` — the exponential wait with seeded jitter between
  retries (its constants are fixed, ``BACKOFF_*``).
* :class:`CircuitBreaker` — classic closed → open → half-open automaton
  driven by simulated time, so a dead server is not hammered and recovery
  is probed with single trial requests.

All injected delays and backoff waits are charged to the shared
:class:`~repro.common.clock.SimClock` (on the ``remote`` track), so fault
handling shows up in the same cost model as regular work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.metrics import (
    REMOTE_BREAKER_STATE_CHANGES,
    REMOTE_FAULTS_INJECTED,
    Metrics,
)


@dataclass(frozen=True)
class FaultPolicy:
    """A seeded, declarative description of link misbehaviour.

    Rates are independent per-request probabilities.  ``transient_rate``
    and ``permanent_rate`` compete for the same draw (a request fails at
    most once), so their sum must not exceed 1.
    """

    #: Seed for the injector's private RNG (decision stream).
    seed: int = 0
    #: Probability a request fails with a retryable link error.
    transient_rate: float = 0.0
    #: Probability a request fails with a non-retryable server error.
    permanent_rate: float = 0.0
    #: Probability a request is hit by a latency spike.
    stall_rate: float = 0.0
    #: Extra simulated seconds added by one latency spike.
    stall_seconds: float = 0.5
    #: Probability a streamed result disconnects part-way through.
    disconnect_rate: float = 0.0
    #: Buffers delivered before an injected disconnect fires.
    disconnect_after_buffers: int = 1
    #: Also inject faults into schema/statistics lookups.
    metadata_faults: bool = False

    def __post_init__(self) -> None:
        for name in ("transient_rate", "permanent_rate", "stall_rate", "disconnect_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.transient_rate + self.permanent_rate > 1.0:
            raise ValueError("transient_rate + permanent_rate must not exceed 1")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be non-negative")
        if self.disconnect_after_buffers < 0:
            raise ValueError("disconnect_after_buffers must be non-negative")

    @classmethod
    def none(cls) -> "FaultPolicy":
        """The default healthy link: no faults ever (zero-overhead)."""
        return cls()

    def is_none(self) -> bool:
        """True when this policy can never inject anything."""
        return (
            self.transient_rate == 0.0
            and self.permanent_rate == 0.0
            and self.stall_rate == 0.0
            and self.disconnect_rate == 0.0
        )


@dataclass(frozen=True)
class FaultDecision:
    """The injector's verdict for one remote request."""

    #: One of ``"ok"``, ``"transient"``, ``"permanent"``.
    kind: str = "ok"
    #: Latency-spike seconds to charge before answering (0 = none).
    extra_latency: float = 0.0
    #: Deliver this many buffers, then disconnect (None = no disconnect).
    disconnect_after: int | None = None


class FaultInjector:
    """Draws deterministic fault decisions for a request stream.

    Exactly three RNG draws are consumed per request regardless of the
    outcome, so decision ``k`` depends only on the seed and ``k`` — not on
    which faults actually fired before it.
    """

    def __init__(self, policy: FaultPolicy, metrics: Metrics | None = None):
        self.policy = policy
        self.metrics = metrics if metrics is not None else Metrics()
        self._rng = random.Random(policy.seed)
        self.requests_seen = 0

    def on_request(self) -> FaultDecision:
        """Decide the fate of the next remote request."""
        policy = self.policy
        self.requests_seen += 1
        u_fail = self._rng.random()
        u_stall = self._rng.random()
        u_drop = self._rng.random()

        kind = "ok"
        if u_fail < policy.transient_rate:
            kind = "transient"
        elif u_fail < policy.transient_rate + policy.permanent_rate:
            kind = "permanent"
        extra = policy.stall_seconds if u_stall < policy.stall_rate else 0.0
        disconnect = (
            policy.disconnect_after_buffers
            if kind == "ok" and u_drop < policy.disconnect_rate
            else None
        )

        injected = (kind != "ok") + (extra > 0.0) + (disconnect is not None)
        if injected:
            self.metrics.incr(REMOTE_FAULTS_INJECTED, injected)
        return FaultDecision(kind, extra, disconnect)


#: Retry backoff: the first wait in simulated seconds, the multiplier
#: applied after each retry, and the fraction of each wait randomized (±)
#: so clients do not retry in lockstep, drawn from an RNG seeded with
#: ``BACKOFF_SEED`` per link.
BACKOFF_BASE = 10e-3
BACKOFF_MULTIPLIER = 2.0
BACKOFF_JITTER = 0.25
BACKOFF_SEED = 0


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side resilience knobs for the Remote DBMS Interface.

    The defaults retry transient failures but change nothing on a healthy
    link: with no faults there are no retries, no RNG draws, and no extra
    charges, so pre-existing runs are bit-identical.
    """

    #: Retries after the first failed attempt (0 = fail fast).
    max_retries: int = 3
    #: Per-request budget of simulated remote seconds (None = unlimited).
    timeout_seconds: float | None = None
    #: Consecutive failures that open the circuit breaker (0 = disabled).
    breaker_threshold: int = 5
    #: Simulated seconds the breaker stays open before a half-open trial
    #: (the default is ~10 remote round trips under the default profile).
    breaker_cooldown: float = 0.5
    #: Locally-refused requests after which the breaker probes anyway.
    #: Cache-served work advances simulated time very slowly, so an open
    #: breaker also recovers by request count, not only by elapsed time.
    breaker_probe_after: int = 8

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive (or None)")
        if self.breaker_cooldown < 0:
            raise ValueError("breaker_cooldown must be non-negative")
        if self.breaker_probe_after < 1:
            raise ValueError("breaker_probe_after must be at least 1")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """Fail-fast client: no retries, no timeout, no breaker."""
        return cls(max_retries=0, breaker_threshold=0)


def backoff(attempt: int, rng: random.Random) -> float:
    """The wait before retry ``attempt`` (0-based), jitter applied."""
    wait = BACKOFF_BASE * (BACKOFF_MULTIPLIER ** attempt)
    return wait * (1.0 + BACKOFF_JITTER * (2.0 * rng.random() - 1.0))


class CircuitBreaker:
    """Closed → open → half-open failure automaton for the remote link.

    Time is whatever monotone simulated-seconds function the owner
    provides (the RDI passes the SimClock), so open/half-open transitions
    are as deterministic as everything else.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        threshold: int,
        cooldown: float,
        time_fn,
        metrics: Metrics,
        probe_after: int = 8,
        tracer=None,
        name: str = "",
    ):
        self.threshold = threshold  # 0 disables the breaker entirely
        self.cooldown = cooldown
        self.probe_after = probe_after
        self._time = time_fn
        self.metrics = metrics
        #: Backend id in a federation; tags transition events ("" = untagged
        #: single-backend breaker, keeping pre-federation traces unchanged).
        self.name = name
        if tracer is None:
            from repro.obs.tracer import Tracer

            tracer = Tracer.disabled()
        self.tracer = tracer
        self.state = self.CLOSED
        self.failures = 0
        self.refusals = 0
        self.opened_at = 0.0
        self.state_changes = 0

    def _transition(self, state: str) -> None:
        if state != self.state:
            attrs = {"before": self.state, "after": state}
            if self.name:
                attrs["backend"] = self.name
            self.tracer.event("breaker.transition", **attrs)
            self.state = state
            self.state_changes += 1
            self.metrics.incr(REMOTE_BREAKER_STATE_CHANGES)

    def _cooled_down(self) -> bool:
        return (
            self._time() - self.opened_at >= self.cooldown
            or self.refusals >= self.probe_after
        )

    def allow(self) -> bool:
        """May a request go out now?  (Open → half-open after cooldown or
        after ``probe_after`` locally-refused requests.)"""
        if self.threshold <= 0 or self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if self._cooled_down():
                self._transition(self.HALF_OPEN)
            else:
                self.refusals += 1
        return self.state != self.OPEN

    def would_allow(self) -> bool:
        """Read-only :meth:`allow` (no state transition) for the planner."""
        if self.threshold <= 0 or self.state != self.OPEN:
            return True
        return self._cooled_down()

    def record_success(self) -> None:
        """A request completed: reset the failure streak, close if probing."""
        self.failures = 0
        if self.state != self.CLOSED:
            self._transition(self.CLOSED)

    def record_failure(self) -> None:
        """A request failed: trip the breaker at the threshold (or on a
        failed half-open trial)."""
        if self.threshold <= 0:
            return
        self.failures += 1
        if self.state == self.HALF_OPEN or self.failures >= self.threshold:
            self._transition(self.OPEN)
            self.opened_at = self._time()
            self.failures = 0
            self.refusals = 0
