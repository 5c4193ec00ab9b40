"""The Remote DBMS Interface (RDI).

Section 5: "Queries to the remote DBMS are translated from CAQL to the DML
of the remote DBMS by a DBMS specific translator in the Remote DBMS
Interface (RDI).  The RDI interacts with the remote DBMS via a standard
communication protocol, and buffers the data returned by the DBMS prior to
passing buffer control to the Cache Manager."

The RDI owns the CMS's copy of the remote schema (Section 5: the Cache
Manager keeps "(a copy of) the remote database schema") so repeated schema
lookups do not pay communication cost.

It is also the resilience boundary for the workstation–server link: every
remote request runs under a :class:`~repro.remote.faults.RetryPolicy` —
bounded retries with exponential backoff (charged to the ``remote`` clock
track), a per-request timeout metered in simulated remote seconds, and a
circuit breaker that refuses requests locally while the server is failing.
With the default policy on a healthy link none of this machinery fires, so
fault handling is strictly opt-in.
"""

from __future__ import annotations

import random
from typing import Callable, TypeVar

from repro.common.clock import CostProfile
from repro.common.errors import (
    CircuitOpenError,
    InvariantViolation,
    RemoteDBMSError,
    RemoteTimeoutError,
    TransientRemoteError,
    UnknownRelationError,
)
from repro.common.metrics import (
    REMOTE_RETRIES,
    REMOTE_SEMIJOIN_REQUESTS,
    REMOTE_TIMEOUTS,
)
from repro.relational.operators import project_entries
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.statistics import RelationStatistics
from repro.remote.faults import BACKOFF_SEED, CircuitBreaker, RetryPolicy, backoff
from repro.remote.server import RemoteDBMS
from repro.remote.sql import DMLRequest
from repro.caql.eval import SHAPE_BOUND
from repro.caql.psj import PSJQuery
from repro.caql.translate import SQLTemplate, SQLTranslation, request_shape, sql_from_psj

T = TypeVar("T")

#: Tuples per buffer the RDI asks the server to stream back ("buffers the
#: data returned by the DBMS prior to passing buffer control to the Cache
#: Manager").
BUFFER_SIZE = 64


def canonical_bindings(
    bindings: dict[str, tuple[object, ...]] | None,
) -> dict[str, tuple[object, ...]]:
    """Deduplicate and canonically order binding sets for the wire.

    Duplicate values are eliminated (shipping them twice would inflate the
    uplink charge for nothing) and the survivors are sorted by
    ``(type name, repr)`` — a total, deterministic order even for mixed
    value types — so same-seed runs ship byte-identical IN-lists.

    Deduplication is by Python equality (what the IN-list check applies),
    but the *representative* of each equality class is chosen canonically:
    values are sorted first, then the earliest of each class wins.  A set
    like ``{1, 1.0}`` collapses either way (``1 == 1.0``), but without the
    pre-sort the survivor would depend on insertion order — and the same
    bindings could ship as ``IN (1)`` on one run and ``IN (1.0)`` on the
    next.
    """
    if not bindings:
        return {}
    out: dict[str, tuple[object, ...]] = {}
    for column in sorted(bindings):
        ordered = sorted(
            bindings[column], key=lambda v: (type(v).__name__, repr(v))
        )
        unique: list[object] = []
        seen: set[object] = set()
        for value in ordered:
            if value in seen:
                continue
            seen.add(value)
            unique.append(value)
        out[column] = tuple(unique)
    return out


def remote_interface(remote, retry: RetryPolicy | None = None):
    """The RDI a bridge reaches ``remote`` through: the one place that
    tells a lone server from a federation.  A lone
    :class:`~repro.remote.server.RemoteDBMS` gets a resilient link under
    ``retry`` (the CMS's ``CMSFeatures.retry_policy``); a federation brings
    its own router (``remote.interface``), whose links keep the budgets
    their ``BackendSpec.retry`` gave them — ``retry`` does not apply."""
    if isinstance(remote, RemoteDBMS):
        return RemoteInterface(remote, retry)
    return remote.interface


class RemoteInterface:
    """Translates PSJ queries to DML, executes them resiliently, rebuilds
    results."""

    def __init__(
        self,
        server: RemoteDBMS,
        retry: RetryPolicy | None = None,
    ):
        self._server = server
        self._schema_cache: dict[str, Schema] = {}
        self._statistics_cache: dict[str, RelationStatistics] = {}
        self._retry = retry if retry is not None else RetryPolicy()
        self._rng = random.Random(BACKOFF_SEED)
        #: Request shape -> its prepared translation (FIFO, ``SHAPE_BOUND``).
        #: Per link: the first translation of a shape looks its schemas up,
        #: and a lookup is a charged round trip on this link alone.
        self._templates: dict[tuple, SQLTemplate] = {}
        #: The last ask bound from a template, ``(psj, in_lists,
        #: translation)``, for :meth:`check_invariants`.
        self._last_bound: tuple | None = None
        #: The server's tracer, so remote round trips nest in caller spans.
        self.tracer = server.tracer
        self._breaker = CircuitBreaker(
            self._retry.breaker_threshold,
            self._retry.breaker_cooldown,
            lambda: server.clock.now,
            server.metrics,
            probe_after=self._retry.breaker_probe_after,
            tracer=self.tracer,
            name=getattr(server, "name", ""),
        )

    @property
    def breaker(self) -> CircuitBreaker:
        """The link's circuit breaker (observable state for tests/planner)."""
        return self._breaker

    def remote_available(self) -> bool:
        """Planner hook: would a remote request be allowed right now?"""
        return self._breaker.would_allow()

    # -- metadata (cached copies) ---------------------------------------------------
    def schema_of(self, table: str) -> Schema:
        """Remote schema, from the local copy after the first round trip."""
        schema = self._schema_cache.get(table)
        if schema is None:
            schema = self._resilient(lambda: self._server.schema_of(table))
            self._schema_cache[table] = schema
        return schema

    def statistics_of(self, table: str) -> RelationStatistics:
        """Remote statistics, cached after the first round trip."""
        statistics = self._statistics_cache.get(table)
        if statistics is None:
            statistics = self._resilient(lambda: self._server.statistics_of(table))
            self._statistics_cache[table] = statistics
        return statistics

    def has_table(self, table: str) -> bool:
        """True when the remote database has ``table``."""
        if table in self._schema_cache:
            return True
        return self._server.has_table(table)

    def cost_profile_of(self, table: str) -> tuple[str, CostProfile]:
        """Planner hook: home backend name and cost profile of ``table`` —
        this link's one server (``""`` for a lone one) for every table."""
        return self._server.name, self._server.profile

    # -- execution ---------------------------------------------------------------------
    def fetch(
        self,
        psj: PSJQuery,
        bindings: dict[str, tuple[object, ...]] | None = None,
    ) -> Relation:
        """Translate, execute with buffering/pipelining, rebuild the result.

        ``bindings`` maps qualified query columns to binding values — the
        semijoin reduction.  Values are deduplicated and put into one
        canonical order here, so the shipped IN-list (and therefore every
        downstream charge and trace) is deterministic regardless of the
        order the executor extracted them in.

        The buffered stream is drained fully here: remote fetches feed the
        cache, so the whole result is wanted (lazy production only applies
        to cache-resident data, Section 5.1).
        """
        with self.tracer.span("rdi.fetch", view=psj.name) as span:
            in_lists = canonical_bindings(bindings)
            if in_lists:
                self._server.metrics.incr(REMOTE_SEMIJOIN_REQUESTS)
                self.tracer.event(
                    "rdi.semijoin",
                    view=psj.name,
                    columns=sorted(in_lists),
                    values=sum(len(v) for v in in_lists.values()),
                )
            translation = self._translate(psj, in_lists)
            shipped = self._resilient(lambda: self._attempt_fetch(translation.query))
            span.set("tuples", len(shipped))
            if in_lists:
                span.set("semijoin", True)
            return translation.rebuild(shipped)

    def fetch_many(self, psjs: list[PSJQuery]) -> list[Relation]:
        """Fetch several independent PSJ queries in **one round trip**.

        The paper's cost model makes every round trip expensive; requests
        that are known together (prefetch companions, generalization
        groups) are shipped as one batch so ``remote_latency`` is paid
        once.  Results come back in request order.  The batch is one
        resilience unit: a failure anywhere retries the whole batch.
        """
        if not psjs:
            return []
        if len(psjs) == 1:
            return [self.fetch(psjs[0])]
        with self.tracer.span("rdi.fetch_batch", count=len(psjs)) as span:
            translations = [self._translate(p, {}) for p in psjs]
            results = self._resilient(
                lambda: self._attempt_fetch_batch([t.query for t in translations])
            )
            self.tracer.event(
                "rdi.batch",
                count=len(psjs),
                views=[p.name for p in psjs],
                tuples=sum(len(shipped) for shipped in results),
            )
            relations = [
                translation.rebuild(shipped)
                for translation, shipped in zip(translations, results)
            ]
            span.set("tuples", sum(len(r) for r in relations))
            return relations

    def fetch_base_relation(self, table: str) -> Relation:
        """Fetch one whole base table (prefetch/generalization path)."""
        from repro.remote.sql import FetchTableQuery

        if not self.has_table(table):
            raise UnknownRelationError(table)
        with self.tracer.span("rdi.fetch_table", table=table) as span:
            shipped = self._resilient(
                lambda: self._attempt_fetch(FetchTableQuery(table))
            )
            span.set("tuples", len(shipped))
        # Results are exposed under positional attribute names, matching
        # how PSJ queries address base relations.
        arity = shipped.schema.arity
        positional = Schema(table, tuple(f"a{i}" for i in range(arity)))
        return project_entries(shipped, [("col", i) for i in range(arity)], positional)

    def fetch_partial(self, psj: PSJQuery) -> Relation | None:
        """:meth:`fetch` for a degraded answer: the rows, or ``None`` when
        the request fails (the Execution Monitor then serves the parts
        that survived, with this one's columns nulled out)."""
        try:
            return self.fetch(psj)
        except RemoteDBMSError:
            return None

    # -- translation -------------------------------------------------------------------
    def _translate(
        self, psj: PSJQuery, in_lists: dict[str, tuple[object, ...]]
    ) -> SQLTranslation:
        """``psj``'s DML request shipping ``in_lists``, bound from its
        shape's template (:class:`~repro.caql.translate.SQLTemplate`),
        which the shape's first ask on this link builds."""
        if psj.unsatisfiable:
            return sql_from_psj(psj, self.schema_of, in_lists=in_lists)  # raises
        key = request_shape(psj, in_lists)
        template = self._templates.get(key)
        if template is None:
            template = SQLTemplate(psj, self.schema_of, in_lists)
            if len(self._templates) >= SHAPE_BOUND:
                del self._templates[next(iter(self._templates))]
            self._templates[key] = template
        translation = template.bind(psj, in_lists)
        self._last_bound = (psj, in_lists, translation)
        return translation

    def check_invariants(self) -> None:
        """The last translation bound from a stored template is the one a
        template built from scratch binds (schemas are local copies by
        then: nothing is charged).  Raises
        :class:`~repro.common.errors.InvariantViolation`."""
        if self._last_bound is None:
            return
        psj, in_lists, translation = self._last_bound
        fresh = sql_from_psj(psj, self.schema_of, in_lists=in_lists)
        if repr(fresh) != repr(translation):
            raise InvariantViolation(
                f"translation of {psj.name} bound from its shape's template "
                f"is {translation.query}, from scratch {fresh.query}"
            )

    # -- resilience ---------------------------------------------------------------------
    def _attempt_fetch(self, request: DMLRequest) -> Relation:
        """One attempt: issue the request and drain the stream, metering the
        per-request timeout against remote seconds actually charged."""
        network = self._server.network
        timeout = self._retry.timeout_seconds
        start = network.charged_seconds
        stream = self._server.execute_stream(request, BUFFER_SIZE)
        return self._drain(stream, start, timeout)

    def _attempt_fetch_batch(self, requests: list[DMLRequest]) -> list[Relation]:
        """One attempt at a whole batch: one round trip, every stream
        drained under a shared per-request timeout."""
        network = self._server.network
        timeout = self._retry.timeout_seconds
        start = network.charged_seconds
        streams = self._server.execute_batch(requests, BUFFER_SIZE)
        return [self._drain(stream, start, timeout) for stream in streams]

    def _drain(self, stream, start: float, timeout: float | None) -> Relation:
        """Pull every buffer of ``stream`` (each pays its transfer), then
        hand over the engine's result: the drained rows, as the distinct
        relation they were read from."""
        network = self._server.network
        while True:
            if timeout is not None and network.charged_seconds - start > timeout:
                raise RemoteTimeoutError(
                    f"remote request exceeded {timeout}s of simulated remote time"
                )
            if not stream.next_buffer():
                break
        return stream.relation

    def _resilient(self, op: Callable[[], T]) -> T:
        """Run one remote operation under retry/backoff/timeout/breaker."""
        policy = self._retry
        breaker = self._breaker
        tracer = self.tracer
        if not breaker.allow():
            tracer.event("breaker.refused", state=breaker.state)
            raise CircuitOpenError(
                "circuit breaker open: remote DBMS temporarily unavailable"
            )
        metrics = self._server.metrics
        network = self._server.network
        last: RemoteDBMSError | None = None
        for attempt in range(policy.max_retries + 1):
            try:
                value = op()
            except RemoteTimeoutError as error:
                metrics.incr(REMOTE_TIMEOUTS)
                tracer.event("rdi.timeout", attempt=attempt)
                last = error
            except TransientRemoteError as error:
                last = error
            except RemoteDBMSError:
                # Permanent: retrying cannot help, but the breaker still
                # counts it toward tripping open.
                breaker.record_failure()
                raise
            else:
                breaker.record_success()
                return value
            breaker.record_failure()
            if attempt >= policy.max_retries or not breaker.allow():
                break
            metrics.incr(REMOTE_RETRIES)
            wait = backoff(attempt, self._rng)
            tracer.event("rdi.retry", attempt=attempt + 1, backoff_seconds=wait)
            network.charge_backoff(wait)
        assert last is not None
        tracer.event("rdi.gave_up", error=type(last).__name__)
        raise last
