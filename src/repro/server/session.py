"""Sessions and the session manager.

The paper's CMS serves *one* inference engine; the BrAID server grows
that into many named IE sessions sharing one cache.  Each session owns

* its own advice context (view specifications, path-expression tracker,
  replacement preferences) — advice is a per-session contract between one
  IE and the CMS, so it must never leak across clients;
* its own :class:`~repro.common.metrics.Metrics` child scope — a session's
  counters are its share alone, while the server root aggregates;
* its own request bookkeeping (backlog, completions, per-request
  simulated latency).

What sessions *share* is the cache (plus the remote link): cross-session
reuse — one client's cached view answering another client's query through
subsumption — is exactly where a semantic cache pays off under multi-user
traffic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.common.errors import (
    ServerError,
    SessionStateError,
    UnknownSessionError,
)
from repro.common.metrics import (
    SERVER_SESSIONS_CLOSED,
    SERVER_SESSIONS_OPENED,
    Metrics,
)
from repro.advice.language import AdviceSet
from repro.caql.ast import CAQLQuery
from repro.core.cache import Cache
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.remote.server import RemoteDBMS


@dataclass
class Request:
    """One submitted query and its lifecycle timestamps (simulated time)."""

    request_id: str
    session_name: str
    query: CAQLQuery
    submitted_at: float
    started_at: float | None = None
    completed_at: float | None = None
    rows: list[tuple] | None = None
    degraded: bool = False
    error: str | None = None

    @property
    def latency(self) -> float | None:
        """Submit-to-completion simulated seconds (None while pending).

        Includes time spent queued behind other sessions' steps: the
        shared clock advances while they run, which is precisely the
        waiting a fairness policy is supposed to bound.
        """
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    @property
    def finished(self) -> bool:
        """True once answered (or failed)."""
        return self.completed_at is not None


class Session:
    """One named IE client of the server: advice context + request state."""

    def __init__(
        self,
        name: str,
        cms: CacheManagementSystem,
        metrics: Metrics,
        weight: float = 1.0,
    ):
        if weight <= 0:
            raise ServerError(f"session weight must be positive, got {weight}")
        self.name = name
        self.cms = cms
        self.metrics = metrics
        self.weight = weight
        self.open = True
        #: Admitted requests not yet started (FIFO within the session).
        self.backlog: deque[Request] = deque()
        self.completed: list[Request] = []
        self._next_request = 1

    def new_request_id(self) -> str:
        request_id = f"{self.name}#{self._next_request}"
        self._next_request += 1
        return request_id

    def begin_advice(self, advice: AdviceSet | None) -> None:
        """(Re)start this session's advice context."""
        self.cms.begin_session(advice)

    def activate(self) -> None:
        """Make this session's advice drive shared-cache replacement."""
        self.cms.activate()

    # -- reporting --------------------------------------------------------------
    def latency_summary(self) -> dict[str, float]:
        """Mean/max simulated latency over completed requests."""
        latencies = [r.latency for r in self.completed if r.latency is not None]
        if not latencies:
            return {"completed": 0, "mean_latency": 0.0, "max_latency": 0.0}
        return {
            "completed": len(latencies),
            "mean_latency": sum(latencies) / len(latencies),
            "max_latency": max(latencies),
        }

    def __repr__(self) -> str:
        state = "open" if self.open else "closed"
        return (
            f"Session({self.name!r}, {state}, weight={self.weight}, "
            f"backlog={len(self.backlog)}, "
            f"completed={len(self.completed)})"
        )


class SessionManager:
    """Opens, resolves, and closes sessions over one shared cache.

    Every session's CMS is constructed against the same :class:`Cache`
    and :class:`RemoteDBMS`; the manager hands each one a child metrics
    scope so per-session numbers never mix.
    """

    def __init__(
        self,
        remote: RemoteDBMS,
        cache: Cache,
        features: CMSFeatures | None = None,
        metrics: Metrics | None = None,
        subplan_registry=None,
    ):
        self.remote = remote
        self.cache = cache
        self.features = features
        self.metrics = metrics if metrics is not None else remote.metrics
        #: The server's shared in-flight subplan registry (MQO), handed to
        #: every session's CMS so concurrent identical remote subplans are
        #: computed once.  None disables sharing.
        self.subplan_registry = subplan_registry
        self._sessions: dict[str, Session] = {}
        self._ever_opened = 0

    # -- lifecycle ----------------------------------------------------------------
    def open(
        self,
        name: str,
        advice: AdviceSet | None = None,
        weight: float = 1.0,
    ) -> Session:
        """Open a named session; raises if the name is already open."""
        if name in self._sessions:
            raise SessionStateError(f"session {name!r} is already open")
        cms = CacheManagementSystem(
            self.remote,
            features=self.features,
            cache=self.cache,
            metrics=self.metrics.scope(name),
            subplan_registry=self.subplan_registry,
        )
        session = Session(name, cms, cms.metrics, weight=weight)
        session.begin_advice(advice)
        self._sessions[name] = session
        self._ever_opened += 1
        self.metrics.incr(SERVER_SESSIONS_OPENED)
        return session

    def close(self, name: str) -> Session:
        """Close a session; its pending requests are abandoned."""
        session = self.get(name)
        session.backlog.clear()
        session.open = False
        del self._sessions[name]
        self.metrics.drop_scope(name)
        self.metrics.incr(SERVER_SESSIONS_CLOSED)
        return session

    # -- resolution ---------------------------------------------------------------
    def get(self, name: str) -> Session:
        """The open session called ``name``; raises UnknownSessionError."""
        session = self._sessions.get(name)
        if session is None:
            raise UnknownSessionError(name)
        return session

    def sessions(self) -> list[Session]:
        """All open sessions, in opening order."""
        return list(self._sessions.values())

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, name: str) -> bool:
        return name in self._sessions
