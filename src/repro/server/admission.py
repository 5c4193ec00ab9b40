"""Admission control: bounded queueing and backpressure.

A server in front of a shared cache bounds the total backlog it is
willing to hold, before any work is done: the **request queue bound**
caps pending requests across all sessions — a submit beyond it is
rejected immediately with a typed
:class:`~repro.common.errors.ServerOverloadError`, which is the
backpressure signal clients retry/back off on.  (Every request completes
in the step that executes it, so nothing else is held per session.)
"""

from __future__ import annotations

from repro.common.errors import ServerError, ServerOverloadError
from repro.common.metrics import (
    SERVER_QUEUE_DEPTH_HIGH_WATER,
    SERVER_REQUESTS_ACCEPTED,
    SERVER_REQUESTS_REJECTED,
    Metrics,
)
from repro.obs.tracer import Tracer
from repro.server.session import Session


def check_queue_depth(max_queue_depth: int) -> int:
    """``max_queue_depth``, or the :class:`ServerError` a bound that is not
    positive is — the one check, for ``ServerConfig`` and the controller."""
    if max_queue_depth <= 0:
        raise ServerError(f"max_queue_depth must be positive, got {max_queue_depth}")
    return max_queue_depth


class AdmissionController:
    """Decides, per request, whether the server takes on more work."""

    def __init__(
        self,
        max_queue_depth: int,
        metrics: Metrics | None = None,
        tracer=None,
    ):
        self.max_queue_depth = check_queue_depth(max_queue_depth)
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = tracer if tracer is not None else Tracer.disabled()
        #: Pending (admitted, unfinished) requests across all sessions.
        self.queued = 0

    # -- admission --------------------------------------------------------------
    def admit(self, session: Session) -> None:
        """Account one incoming request; raises when the server is full.

        Rejection is *before* enqueue — an overloaded server does cheap
        bookkeeping only, never planning or remote work, for a request it
        cannot hold.
        """
        if self.queued >= self.max_queue_depth:
            self.metrics.incr(SERVER_REQUESTS_REJECTED)
            self.tracer.event(
                "server.rejected",
                session=session.name,
                queue_depth=self.queued,
                max_queue_depth=self.max_queue_depth,
            )
            raise ServerOverloadError(
                f"request queue full ({self.queued}/{self.max_queue_depth}); "
                f"session {session.name!r} must back off",
                queue_depth=self.queued,
                max_queue_depth=self.max_queue_depth,
            )
        self.queued += 1
        self.metrics.incr(SERVER_REQUESTS_ACCEPTED)
        self.metrics.gauge_max(SERVER_QUEUE_DEPTH_HIGH_WATER, self.queued)

    def release(self) -> None:
        """Account one finished (or abandoned) request."""
        if self.queued <= 0:
            raise ValueError("release without a matching admit")
        self.queued -= 1

    # -- eligibility ------------------------------------------------------------
    def is_eligible(self, session: Session) -> bool:
        """Does this session have a request the scheduler could run now?"""
        return session.open and bool(session.backlog)

    def utilization(self) -> float:
        """Queue fill fraction (the overload signal clients can poll)."""
        return self.queued / self.max_queue_depth
