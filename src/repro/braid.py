"""The BrAID system facade: IE + CMS + remote DBMS, wired per Figure 3.

:class:`BraidSystem` is the public entry point for users of this library:
load a workload (or tables + rules), pick an inference strategy and a
bridge (the full CMS or one of the comparison baselines), and ask AI
queries.  All cost accounting is shared, so ``report()`` summarizes one
run end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.clock import SimClock
from repro.common.errors import BraidError
from repro.common.metrics import Metrics
from repro.obs.tracer import Tracer
from repro.logic.kb import KnowledgeBase
from repro.relational.relation import Relation
from repro.remote.server import RemoteDBMS
from repro.baselines.exact_cache import ExactMatchCache
from repro.baselines.loose import LooseCoupling
from repro.baselines.relation_cache import SingleRelationBuffer
from repro.core.cms import CacheManagementSystem
from repro.ie.engine import InferenceEngine, Solutions
from repro.server.braid_server import BraidServer, ServerConfig
from repro.workloads.workload import Workload

#: The bridge implementations selectable by name.
BRIDGES = ("cms", "loose", "exact-cache", "relation-buffer")


@dataclass
class BraidConfig:
    """Construction-time options for a BrAID system."""

    strategy: str = "conjunction"
    bridge: str = "cms"
    cache_capacity_bytes: int = 4_000_000
    generate_advice: bool = True
    #: Collect a full span trace of every query's lifecycle (IE step →
    #: CAQL query → plan → execution → remote link).  Off by default.
    tracing: bool = False


class BraidSystem:
    """An assembled BrAID instance: remote DBMS + bridge + IE."""

    def __init__(
        self,
        tables: list[Relation],
        kb: KnowledgeBase,
        config: BraidConfig | None = None,
    ):
        self.config = config if config is not None else BraidConfig()
        self.clock = SimClock()
        self.metrics = Metrics()
        self.tracer = (
            Tracer(self.clock) if self.config.tracing else Tracer.disabled()
        )
        self.remote = RemoteDBMS(
            clock=self.clock, metrics=self.metrics, tracer=self.tracer
        )
        for table in tables:
            self.remote.load_table(table)

        self.kb = kb
        #: With the "cms" bridge the system is a one-session instance of
        #: the multi-session server: the single IE talks to a session's
        #: CMS while the session manager owns the (shareable) cache, so
        #: the single- and multi-client paths exercise the same layer.
        self.server: BraidServer | None = None
        self.bridge = self._build_bridge()
        self.ie = InferenceEngine(
            kb,
            self.bridge,
            strategy=self.config.strategy,
            generate_advice=self.config.generate_advice,
        )

    def _build_bridge(self):
        bridge = self.config.bridge
        if bridge == "cms":
            self.server = BraidServer(
                config=ServerConfig(
                    cache_capacity_bytes=self.config.cache_capacity_bytes
                ),
                remote=self.remote,
            )
            return self.server.open_session("main").cms
        if bridge == "loose":
            return LooseCoupling(self.remote)
        if bridge == "exact-cache":
            return ExactMatchCache(
                self.remote, capacity_bytes=self.config.cache_capacity_bytes
            )
        if bridge == "relation-buffer":
            return SingleRelationBuffer(
                self.remote, capacity_bytes=self.config.cache_capacity_bytes
            )
        raise BraidError(f"unknown bridge {bridge!r}; have {BRIDGES}")

    # -- construction helpers --------------------------------------------------------
    @classmethod
    def from_workload(cls, workload: Workload, config: BraidConfig | None = None) -> "BraidSystem":
        """Build a system from a prepared workload bundle."""
        return cls(workload.tables, workload.build_kb(), config)

    # -- the AI query interface ----------------------------------------------------------
    def ask(self, query: str) -> Solutions:
        """Solve an AI query (lazy solutions)."""
        return self.ie.ask(query)

    def ask_all(self, query: str) -> list[dict[str, object]]:
        """All solutions of an AI query, as dicts."""
        return self.ie.ask_all(query)

    def ask_first(self, query: str) -> dict[str, object] | None:
        """The first solution only (lazy under interpretive strategies)."""
        return self.ie.ask_first(query)

    def explain(self, query: str, solution: dict[str, object] | None = None):
        """Justify an answer (see :meth:`InferenceEngine.explain`)."""
        return self.ie.explain(query, solution)

    # -- reporting -------------------------------------------------------------------------
    def report(self) -> str:
        """A human-readable cost summary of everything asked so far."""
        lines = [
            f"BrAID run [{self.config.bridge} bridge, {self.config.strategy} strategy]",
            f"simulated time: {self.clock.now:.6f}s",
            "",
            self.metrics.format(),
        ]
        if isinstance(self.bridge, CacheManagementSystem):
            stats = self.bridge.cache_statistics()
            lines.append("")
            lines.append(
                "cache: {elements:.0f} elements, {total_rows:.0f} rows, "
                "{used_bytes:.0f}/{capacity_bytes:.0f} bytes, "
                "{evictions:.0f} evictions".format(**stats)
            )
        return "\n".join(lines)

    def trace_jsonl(self) -> str:
        """The span trace in canonical JSONL ("" with tracing off)."""
        return self.tracer.to_jsonl()

    def trace_fingerprint(self) -> str:
        """SHA-256 over the span trace (same seed → same fingerprint)."""
        return self.tracer.fingerprint()
