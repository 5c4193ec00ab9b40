"""Exception hierarchy shared by every BrAID subsystem.

All errors raised by this package derive from :class:`BraidError` so that a
caller embedding BrAID can catch everything with a single ``except`` clause
while still being able to discriminate by subsystem.
"""

from __future__ import annotations


class BraidError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ParseError(BraidError):
    """A textual query, rule, or advice expression could not be parsed.

    Carries the offending ``text`` and a ``position`` (character offset)
    when they are known, so tools can point at the error location.
    """

    def __init__(self, message: str, text: str | None = None, position: int | None = None):
        super().__init__(message)
        self.text = text
        self.position = position

    def __str__(self) -> str:
        base = super().__str__()
        if self.text is not None and self.position is not None:
            snippet = self.text[max(0, self.position - 20):self.position + 20]
            return f"{base} (at offset {self.position}: ...{snippet!r}...)"
        return base


class SchemaError(BraidError):
    """A relation was used inconsistently with its declared schema."""


class UnknownRelationError(SchemaError):
    """A query referenced a relation that no component knows about."""

    def __init__(self, name: str):
        super().__init__(f"unknown relation: {name!r}")
        self.name = name


class EvaluationError(BraidError):
    """A query plan or generator failed during evaluation."""


class CacheError(BraidError):
    """The cache manager was asked to do something inconsistent."""


class CacheCapacityError(CacheError):
    """A cache element cannot fit even after evicting every evictable element."""


class AdviceError(BraidError):
    """An advice expression is malformed or inconsistent with the session."""


class RemoteDBMSError(BraidError):
    """The remote DBMS rejected or failed a request."""


class TransientRemoteError(RemoteDBMSError):
    """A remote request failed in a way that may succeed if retried.

    Raised for injected link failures and mid-stream disconnects; the
    resilient RDI retries these with exponential backoff.
    """


class RemoteTimeoutError(RemoteDBMSError):
    """A remote request exceeded the client's per-request timeout budget.

    Timeouts are measured in simulated seconds of remote-side work, so they
    are deterministic under a fixed fault seed.  Treated as retryable.
    """


class CircuitOpenError(RemoteDBMSError):
    """The circuit breaker is open: remote requests are refused locally.

    Raised without touching the network, so a failing server is not
    hammered while it recovers; the CMS answers from the cache (degraded)
    when it can.
    """


class TranslationError(BraidError):
    """A CAQL query could not be translated to the remote DBMS's DML."""


class PlanningError(BraidError):
    """The query planner/optimizer could not produce a plan."""


class ServerError(BraidError):
    """The multi-session BrAID server refused or failed a request."""


class ServerOverloadError(ServerError):
    """Admission control rejected a request because the server is saturated.

    Raised when the bounded request queue is full; carries the queue
    bound so clients can implement their own backoff.
    """

    def __init__(self, message: str, queue_depth: int | None = None,
                 max_queue_depth: int | None = None):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.max_queue_depth = max_queue_depth


class UnknownSessionError(ServerError):
    """A request named a session the server has never opened (or closed)."""

    def __init__(self, name: str):
        super().__init__(f"unknown session: {name!r}")
        self.name = name


class SessionStateError(ServerError):
    """A session was used in a way its lifecycle state forbids
    (double-open of a name, submit after close, and the like)."""


class InferenceError(BraidError):
    """The inference engine failed while solving an AI query."""


class InvariantViolation(BraidError):
    """An internal consistency check failed.

    Raised by the ``check_invariants()`` hooks on the cache, planner,
    result streams, and metrics ledger (see :mod:`repro.qa.invariants`).
    A violation always indicates a bug in BrAID itself, never bad input:
    the checks assert properties the implementation is supposed to
    maintain unconditionally.
    """


class KnowledgeBaseError(BraidError):
    """A rule or assertion is inconsistent with the knowledge base."""
