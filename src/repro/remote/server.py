"""The remote DBMS facade: an independent system component.

Section 3 of the paper: "since the DBMS is treated as an independent system
component, it does not access any information from any other BrAID
component".  Correspondingly this class only *answers* requests:

* DML execution (:meth:`execute` / :meth:`execute_stream`),
* schema lookups, and
* statistics lookups,

and every answer is charged through the :class:`NetworkModel`.  The
streaming form models Section 5.5: "The interface also allows pipelining if
the DBMS supports it.  In that case, the DBMS starts returning the data
before the complete result to the DBMS query has been processed."
"""

from __future__ import annotations

from itertools import islice
from typing import Protocol

from repro.common.clock import CostProfile, SimClock
from repro.common.errors import RemoteDBMSError, TransientRemoteError
from repro.common.metrics import REMOTE_BATCHED_REQUESTS, Metrics
from repro.obs.tracer import Tracer
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.statistics import RelationStatistics
from repro.remote.catalog import Catalog
from repro.remote.engine import EngineResult, PurePythonEngine
from repro.remote.faults import FaultInjector, FaultPolicy
from repro.remote.network import REMOTE_TRACK, NetworkModel
from repro.remote.sql import DMLRequest, FetchTableQuery, SelectQuery


class Engine(Protocol):
    """What the server needs from a query engine (pure-Python or sqlite)."""

    def create_table(self, relation: Relation) -> None:
        """Install a base table."""

    def execute(self, request: DMLRequest) -> EngineResult:
        """Execute one DML request."""


class RemoteResultStream:
    """A buffered, possibly pipelined result being shipped to the workstation.

    With pipelining, transfer cost is charged per buffer as buffers are
    pulled — the consumer can stop early and pay only for what was shipped.
    Without pipelining, the whole result is shipped (and charged) when the
    stream is created, and pulls merely walk the local buffer.
    """

    def __init__(
        self,
        result: Relation,
        network: NetworkModel,
        buffer_size: int,
        pipelined: bool,
        fail_after_buffers: int | None = None,
    ):
        # The engine's result is nobody else's: its rows are read where
        # they are, a buffer at a time, not copied into the stream first.
        #: The whole result, for a consumer that has drained every buffer.
        self.relation = result
        self.schema = result.schema
        self._rows = iter(result)
        self._total = len(result)
        self._network = network
        self._buffer_size = max(1, buffer_size)
        self._pipelined = pipelined
        self._position = 0
        self._fail_after = fail_after_buffers
        self._buffers_pulled = 0
        if not pipelined:
            network.charge_transfer(self._total)

    def next_buffer(self) -> list[tuple]:
        """The next buffer of rows; empty when the result is exhausted."""
        if self._position >= self._total:
            return []
        if self._fail_after is not None and self._buffers_pulled >= self._fail_after:
            raise TransientRemoteError(
                f"connection dropped mid-stream after {self._buffers_pulled} buffers"
            )
        chunk = list(islice(self._rows, self._buffer_size))
        self._position += len(chunk)
        self._buffers_pulled += 1
        if self._pipelined:
            self._network.charge_transfer(len(chunk))
        return chunk


class RemoteDBMS:
    """A conventional relational DBMS on the far side of the network."""

    def __init__(
        self,
        engine: Engine | None = None,
        clock: SimClock | None = None,
        profile: CostProfile | None = None,
        metrics: Metrics | None = None,
        supports_pipelining: bool = True,
        faults: FaultPolicy | None = None,
        tracer=None,
        name: str = "",
    ):
        self.engine: Engine = engine if engine is not None else PurePythonEngine()
        self.clock = clock if clock is not None else SimClock()
        self.profile = profile if profile is not None else CostProfile()
        self.metrics = metrics if metrics is not None else Metrics()
        #: Shared trace sink; the whole bridge adopts the server's tracer so
        #: remote round trips nest inside the spans of whoever called them.
        self.tracer = tracer if tracer is not None else Tracer.disabled()
        #: Backend identity in a federation ("" for a lone server).  A named
        #: server charges the ``remote.<name>`` clock track so per-backend
        #: time is attributable inside parallel regions, and its breaker
        #: transitions carry the backend tag.
        self.name = name
        track = f"{REMOTE_TRACK}.{name}" if name else REMOTE_TRACK
        self.network = NetworkModel(self.clock, self.profile, self.metrics, track=track)
        self.catalog = Catalog()
        self.supports_pipelining = supports_pipelining
        self.fault_injector: FaultInjector | None = None
        self.set_fault_policy(faults)

    def set_fault_policy(self, faults: FaultPolicy | None) -> None:
        """Install (or clear) the link's fault policy.

        May be called mid-run to model an outage window.  A ``None`` or
        all-zero policy restores the exact pre-fault request path.
        """
        if faults is None or faults.is_none():
            self.fault_injector = None
        else:
            self.fault_injector = FaultInjector(faults, self.metrics)

    def _inject(self, allow_disconnect: bool, metadata: bool = False) -> int | None:
        """Consult the fault injector for one request.

        Charges any latency spike, raises injected errors, and returns the
        buffer count after which a stream should disconnect (or None).
        """
        injector = self.fault_injector
        if injector is None:
            return None
        if metadata and not injector.policy.metadata_faults:
            return None
        decision = injector.on_request()
        if decision.extra_latency:
            self.network.charge_stall(decision.extra_latency)
            self.tracer.event(
                "fault.stall", seconds=decision.extra_latency
            )
        if decision.kind == "transient":
            self.tracer.event("fault.injected", kind="transient")
            raise TransientRemoteError("injected transient link failure")
        if decision.kind == "permanent":
            self.tracer.event("fault.injected", kind="permanent")
            raise RemoteDBMSError("injected permanent remote failure")
        if decision.disconnect_after is not None and allow_disconnect:
            self.tracer.event(
                "fault.disconnect_armed", after_buffers=decision.disconnect_after
            )
        return decision.disconnect_after if allow_disconnect else None

    # -- data definition (done by the DBA, not charged) ----------------------------
    def load_table(self, relation: Relation) -> None:
        """Install a base table (bulk load; not part of measured work)."""
        self.engine.create_table(relation)
        self.catalog.register(relation)

    def refresh_statistics(self) -> None:
        """Recompute catalog statistics from current engine contents.

        DBA maintenance work — no network charges, no faults.  Catalog
        statistics are otherwise frozen at :meth:`load_table` time, so an
        engine-side reload (``engine.create_table`` called directly) leaves
        the planner costing against stale cardinalities until this runs.
        """
        self.catalog.refresh_all(
            lambda table: self.engine.execute(FetchTableQuery(table)).relation
        )

    # -- metadata requests ------------------------------------------------------------
    def schema_of(self, table: str) -> Schema:
        """Answer a schema lookup (one round trip)."""
        self.network.charge_request()
        self._inject(allow_disconnect=False, metadata=True)
        return self.catalog.schema(table)

    def statistics_of(self, table: str) -> RelationStatistics:
        """Answer a statistics lookup (one round trip)."""
        self.network.charge_request()
        self._inject(allow_disconnect=False, metadata=True)
        return self.catalog.statistics(table)

    def has_table(self, table: str) -> bool:
        """True when the catalog knows ``table`` (not charged)."""
        return self.catalog.has(table)

    # -- DML requests -------------------------------------------------------------------
    def _charge_uplink(self, request: DMLRequest) -> None:
        """Pay the wire cost of any binding values the request carries."""
        if isinstance(request, SelectQuery):
            self.network.charge_uplink(request.binding_values_shipped())

    def execute(self, request: DMLRequest) -> Relation:
        """Execute a request and ship the entire result."""
        self.network.charge_request()
        self._charge_uplink(request)
        self._inject(allow_disconnect=False)
        result = self.engine.execute(request)
        self.network.charge_server_work(result.tuples_touched)
        self.network.charge_transfer(len(result.relation))
        return result.relation

    def execute_stream(self, request: DMLRequest, buffer_size: int = 32) -> RemoteResultStream:
        """Execute a request, shipping the result in buffers.

        The server computes the full result (a conventional DBMS "may
        perform more evaluation ... than required by the inference engine",
        Section 5.5) but with pipelining only shipped buffers pay transfer.
        """
        self.network.charge_request()
        self._charge_uplink(request)
        fail_after = self._inject(allow_disconnect=True)
        result = self.engine.execute(request)
        self.network.charge_server_work(result.tuples_touched)
        return RemoteResultStream(
            result.relation,
            self.network,
            buffer_size,
            pipelined=self.supports_pipelining,
            fail_after_buffers=fail_after,
        )

    def execute_batch(
        self, requests: list[DMLRequest], buffer_size: int = 32
    ) -> list[RemoteResultStream]:
        """Execute several independent requests in **one round trip**.

        The round-trip latency is paid once and amortized over every
        sub-request; server work, uplink bindings, and transfer are still
        charged per sub-request (the wire carries the same payloads, just
        without the per-request latency).  An injected mid-stream
        disconnect is armed on the first stream only — the wire drops once.
        """
        if not requests:
            return []
        self.network.charge_request()
        if len(requests) > 1:
            self.metrics.incr(REMOTE_BATCHED_REQUESTS, len(requests))
        fail_after = self._inject(allow_disconnect=True)
        streams: list[RemoteResultStream] = []
        for index, request in enumerate(requests):
            self._charge_uplink(request)
            result = self.engine.execute(request)
            self.network.charge_server_work(result.tuples_touched)
            streams.append(
                RemoteResultStream(
                    result.relation,
                    self.network,
                    buffer_size,
                    pipelined=self.supports_pipelining,
                    fail_after_buffers=fail_after if index == 0 else None,
                )
            )
        return streams
