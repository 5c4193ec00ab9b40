"""The multi-session BrAID server.

Ties the pieces together: a :class:`SessionManager` (named IE sessions,
each with private advice and metrics, all over one shared cache), an
:class:`AdmissionController` (bounded queue, typed overload rejections),
and a deterministic cooperative :class:`Scheduler` (round-robin or
weighted-fair) that interleaves session steps on the shared
:class:`SimClock`.

A request's life:

1. ``submit(session, query)`` — admission control; rejected with
   :class:`ServerOverloadError` when the queue bound is hit, otherwise
   queued on the session's backlog stamped with the current simulated
   time;
2. one **execute** step — the scheduler picks the session, the session's
   CMS answers the query (cache elements it reads are pinned for the
   call), the answer is drained — a lazy one too — and the request
   completes.

Latency is completion time minus submit time, so waiting behind other
sessions' steps counts, which is what fairness policies bound.  Steps
never interleave inside a request: the server does not stream to its
client, so no answer is held open while another session runs.

Everything is deterministic: same seed, sessions, and submissions →
byte-identical schedule traces and per-session results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.common.clock import SimClock
from repro.common.errors import BraidError, ServerError
from repro.common.metrics import (
    SERVER_REQUESTS_COMPLETED,
    SERVER_SCHEDULER_STEPS,
    Metrics,
)
from repro.advice.language import AdviceSet
from repro.caql.ast import CAQLQuery
from repro.obs.tracer import Tracer
from repro.relational.relation import Relation
from repro.remote.server import RemoteDBMS
from repro.core.cache import Cache
from repro.core.cms import CMSFeatures
from repro.server.admission import AdmissionController, check_queue_depth
from repro.server.mqo import SharedSubplanRegistry
from repro.server.scheduler import POLICIES
from repro.server.session import Request, Session, SessionManager


@dataclass
class ServerConfig:
    """Construction-time options for a BrAID server."""

    cache_capacity_bytes: int = 4_000_000
    features: CMSFeatures | None = None
    scheduler_policy: str = "round-robin"  # or "weighted-fair"
    scheduler_seed: int = 0
    max_queue_depth: int = 256  # must be positive
    #: Collect a full span trace of every request's lifecycle.  Off by
    #: default: the disabled tracer makes every hook a no-op.
    tracing: bool = False

    def __post_init__(self) -> None:
        if self.scheduler_policy not in POLICIES:
            raise ServerError(
                f"unknown scheduler policy {self.scheduler_policy!r}; "
                f"have {tuple(POLICIES)}"
            )
        check_queue_depth(self.max_queue_depth)


@dataclass
class StepRecord:
    """One scheduler decision, for the reproducible schedule trace."""

    index: int
    session: str
    request_id: str
    clock: float

    def line(self) -> str:
        return f"{self.index}|{self.session}|{self.request_id}|{self.clock:.9f}"


class BraidServer:
    """A shared CMS serving many concurrent IE sessions."""

    def __init__(
        self,
        tables: list[Relation] | None = None,
        config: ServerConfig | None = None,
        remote: RemoteDBMS | None = None,
    ):
        self.config = config if config is not None else ServerConfig()
        self.remote = remote if remote is not None else RemoteDBMS()
        for table in tables or []:
            self.remote.load_table(table)

        self.clock: SimClock = self.remote.clock
        self.metrics: Metrics = self.remote.metrics
        # Tracer adoption order: an enabled tracer already attached to the
        # remote; else ``config.tracing`` creates one; else the zero-cost
        # disabled tracer.  The remote is re-pointed at the adopted tracer
        # so every session's RDI (built later, against the remote) shares
        # the same trace.
        if self.remote.tracer.enabled:
            tracer = self.remote.tracer
        elif self.config.tracing:
            tracer = Tracer(self.clock)
        else:
            tracer = Tracer.disabled()
        self.tracer = tracer
        self.remote.tracer = tracer
        self.cache = Cache(
            self.config.cache_capacity_bytes,
            metrics=self.metrics,
            tracer=tracer,
            clock=self.clock,
        )
        #: In-flight shared-subplan registry (MQO): concurrent sessions
        #: shipping the same remote subplan reuse one in-flight result.
        #: Built iff the sessions' features say ``mqo``; cleared whenever
        #: the server goes idle, so sharing only spans one concurrent burst.
        features = self.config.features
        self.subplan_registry = (
            SharedSubplanRegistry()
            if features is None or features.mqo
            else None
        )
        self.sessions = SessionManager(
            self.remote,
            self.cache,
            features=self.config.features,
            metrics=self.metrics,
            subplan_registry=self.subplan_registry,
        )
        self.admission = AdmissionController(
            max_queue_depth=self.config.max_queue_depth,
            metrics=self.metrics,
            tracer=tracer,
        )
        self.scheduler = POLICIES[self.config.scheduler_policy](
            self.config.scheduler_seed
        )
        self.schedule_trace: list[StepRecord] = []

    # -- session lifecycle --------------------------------------------------------
    def open_session(
        self,
        name: str,
        advice: AdviceSet | None = None,
        weight: float = 1.0,
    ) -> Session:
        """Open a named IE session (its advice context starts now)."""
        session = self.sessions.open(name, advice=advice, weight=weight)
        self.scheduler.note_session(session)
        return session

    def close_session(self, name: str) -> Session:
        """Close a session, abandoning whatever it still had pending."""
        session = self.sessions.get(name)
        abandoned = len(session.backlog)
        closed = self.sessions.close(name)
        for _ in range(abandoned):
            self.admission.release()
        self.scheduler.forget_session(name)
        return closed

    # -- the request interface ----------------------------------------------------
    def submit(self, session_name: str, query: CAQLQuery) -> Request:
        """Queue one CAQL query for a session; may raise ServerOverloadError."""
        session = self.sessions.get(session_name)
        self.admission.admit(session)
        request = Request(
            request_id=session.new_request_id(),
            session_name=session.name,
            query=query,
            submitted_at=self.clock.now,
        )
        session.backlog.append(request)
        return request

    def step(self) -> bool:
        """Run one scheduler step; False when no session has runnable work."""
        eligible = [
            s for s in self.sessions.sessions() if self.admission.is_eligible(s)
        ]
        if not eligible:
            return False
        session = self.scheduler.pick(eligible)
        # The running session's advice governs shared-cache replacement
        # for the duration of its step.
        session.activate()
        request = session.backlog.popleft()
        with self.tracer.span(
            "server.step",
            session=session.name,
            request=request.request_id,
            index=len(self.schedule_trace),
        ) as span:
            if self.tracer.enabled:
                span.set("eligible", [s.name for s in eligible])
            self._execute(session, request)
        self.metrics.incr(SERVER_SCHEDULER_STEPS)
        self.schedule_trace.append(
            StepRecord(
                index=len(self.schedule_trace),
                session=session.name,
                request_id=request.request_id,
                clock=self.clock.now,
            )
        )
        return True

    def run_until_idle(self) -> int:
        """Step until nothing is runnable; returns the number of steps.

        Going idle ends the concurrent burst, so the in-flight subplan
        registry is cleared: MQO sharing is a concurrency optimization,
        never a second cache (durable reuse belongs to the Cache, which
        has eviction, pinning, and invalidation; the registry has none).
        """
        steps = 0
        while self.step():
            steps += 1
        if self.subplan_registry is not None:
            self.subplan_registry.clear()
        return steps

    def results(self, session_name: str) -> list[Request]:
        """Completed requests of an open session, in completion order."""
        return list(self.sessions.get(session_name).completed)

    # -- the execute step ---------------------------------------------------------
    def _execute(self, session: Session, request: Request) -> None:
        """Answer ``request`` and drain its stream, lazy or eager."""
        request.started_at = self.clock.now
        try:
            stream = session.cms.query(request.query)
            request.rows = stream.fetch_all()
            request.degraded = stream.degraded
        except BraidError as error:
            request.error = f"{type(error).__name__}: {error}"
        request.completed_at = self.clock.now
        session.completed.append(request)
        self.admission.release()
        self.metrics.incr(SERVER_REQUESTS_COMPLETED)

    # -- reproducibility artifacts --------------------------------------------------
    def schedule_lines(self) -> list[str]:
        """The schedule trace as stable text lines."""
        return [record.line() for record in self.schedule_trace]

    def schedule_fingerprint(self) -> str:
        """SHA-256 over the schedule trace: equal across same-seed runs."""
        digest = hashlib.sha256()
        for line in self.schedule_lines():
            digest.update(line.encode())
            digest.update(b"\n")
        return digest.hexdigest()

    def trace_jsonl(self) -> str:
        """The span trace in canonical JSONL (empty when tracing is off)."""
        return self.tracer.to_jsonl()

    def trace_fingerprint(self) -> str:
        """SHA-256 over the span trace, the schedule-fingerprint analogue."""
        return self.tracer.fingerprint()

    def session_results_snapshot(self) -> dict[str, list[tuple]]:
        """Canonical per-session results, for byte-identical comparisons."""
        snapshot: dict[str, list[tuple]] = {}
        for session in self.sessions.sessions():
            snapshot[session.name] = [
                (
                    request.request_id,
                    request.query.name,
                    request.latency,
                    request.degraded,
                    request.error,
                    tuple(request.rows) if request.rows is not None else None,
                )
                for request in session.completed
            ]
        return snapshot

    # -- fairness ---------------------------------------------------------------------
    def fairness_report(self) -> dict[str, object]:
        """Per-session latency summaries plus the max/min mean-latency ratio."""
        per_session: dict[str, dict[str, float]] = {}
        means = []
        for session in self.sessions.sessions():
            summary = session.latency_summary()
            per_session[session.name] = summary
            if summary["completed"]:
                means.append(summary["mean_latency"])
        ratio = (max(means) / min(means)) if means and min(means) > 0 else 1.0
        return {
            "sessions": per_session,
            "max_min_latency_ratio": ratio,
            "steps": len(self.schedule_trace),
            "queue_utilization": self.admission.utilization(),
        }
