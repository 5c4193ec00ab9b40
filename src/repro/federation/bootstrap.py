"""Building a federation: backend specs → servers, catalog, interface.

One call wires the whole multi-backend remote layer:

* one :class:`~repro.remote.server.RemoteDBMS` per spec — its own engine
  (pure-Python or sqlite) and its own :class:`~repro.common.clock.CostProfile`,
  all sharing one :class:`SimClock` and one tracer (a backend's fault
  policy is installed afterwards, :meth:`Federation.set_backend_faults`),
* per-backend metrics scopes under one root ledger, so ``remote.*``
  counters aggregate at the root while each backend's share stays
  readable under ``metrics.scopes()[name]``,
* catalog statistics refreshed from engine contents at bootstrap
  (:meth:`RemoteDBMS.refresh_statistics`), so the cardinalities that
  drive semijoin costing are honest even after engine-side reloads,
* a :class:`~repro.federation.interface.FederatedInterface` routing
  one-backend requests over one resilient link (retry budget + circuit
  breaker) per backend.

The resulting :class:`Federation` quacks enough like a single server
(``clock``/``profile``/``metrics``/``tracer``) to stand in the ``remote``
position of a :class:`~repro.core.cms.CacheManagementSystem` or a
baseline, which reach it through its router (``interface``, picked by
:func:`~repro.core.rdi.remote_interface`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.common.clock import CostProfile, SimClock
from repro.common.metrics import Metrics
from repro.obs.tracer import Tracer
from repro.relational.relation import Relation
from repro.remote.engine import PurePythonEngine
from repro.remote.faults import FaultPolicy, RetryPolicy
from repro.remote.server import RemoteDBMS
from repro.core.cms import CacheManagementSystem
from repro.baselines.loose import LooseCoupling
from repro.federation.catalog import FederatedCatalog
from repro.federation.interface import FederatedInterface


@dataclass
class BackendSpec:
    """Declarative description of one federated backend."""

    #: Backend id: metrics scope, clock track suffix, trace tag.
    name: str
    #: Base tables this backend owns.
    tables: Sequence[Relation] = field(default_factory=tuple)
    #: ``"python"`` (deterministic pure-Python engine) or ``"sqlite"``.
    engine: str = "python"
    #: Per-backend cost profile (None = the federation default).
    profile: CostProfile | None = None
    #: Per-backend retry budget (None = the RDI default policy).
    retry: RetryPolicy | None = None


class Federation:
    """A bootstrapped multi-backend remote layer."""

    def __init__(
        self,
        catalog: FederatedCatalog,
        interface: FederatedInterface,
        clock: SimClock,
        metrics: Metrics,
        tracer,
        profile: CostProfile,
    ):
        self.catalog = catalog
        self.interface = interface
        self.clock = clock
        #: The root ledger: aggregate ``remote.*`` totals; per-backend
        #: shares live in ``metrics.scopes()[backend]``.
        self.metrics = metrics
        self.tracer = tracer
        #: Workstation-side profile (cache work, local joins).
        self.profile = profile

    # -- backends ---------------------------------------------------------------
    def backends(self) -> list[str]:
        """All backend names, sorted."""
        return self.catalog.backends()

    def backend(self, name: str) -> RemoteDBMS:
        """The backend server registered under ``name``."""
        return self.catalog.backend(name)

    def set_backend_faults(self, name: str, faults: FaultPolicy | None) -> None:
        """Install (or clear) one backend's fault policy mid-run — e.g.
        turn a backend dark with ``FaultPolicy(permanent_rate=1.0)``."""
        self.catalog.backend(name).set_fault_policy(faults)

    # -- clients ----------------------------------------------------------------
    def cms(self, capacity_bytes: int = 4_000_000, features=None):
        """A CMS over this federation: it reaches the backends through the
        federated interface, and the planner costs and splits remote parts
        per backend."""
        return CacheManagementSystem(
            self, capacity_bytes=capacity_bytes, features=features
        )

    def naive(self) -> LooseCoupling:
        """The loose-coupling baseline over the *same* backends and links
        (shared clock/metrics/breakers: measures marginal cost only; for a
        clean comparison build a second federation from the same specs)."""
        return LooseCoupling(self)


def build_federation(
    specs: Sequence[BackendSpec],
    clock: SimClock | None = None,
    tracer=None,
) -> Federation:
    """Wire up servers, catalog, and interface from backend specs."""
    if not specs:
        raise ValueError("a federation needs at least one backend spec")
    clock = clock if clock is not None else SimClock()
    metrics = Metrics()
    tracer = tracer if tracer is not None else Tracer.disabled()
    profile = CostProfile()
    catalog = FederatedCatalog()
    retries: dict[str, RetryPolicy] = {}
    for spec in specs:
        if spec.engine == "sqlite":
            from repro.remote.sqlite_backend import SqliteEngine

            engine = SqliteEngine()
        elif spec.engine == "python":
            engine = PurePythonEngine()
        else:
            raise ValueError(f"unknown engine {spec.engine!r} for {spec.name!r}")
        server = RemoteDBMS(
            engine=engine,
            clock=clock,
            profile=spec.profile if spec.profile is not None else profile,
            metrics=metrics.scope(spec.name),
            tracer=tracer,
            name=spec.name,
        )
        for relation in spec.tables:
            server.load_table(relation)
        # Honest statistics at bootstrap: recomputed from what the engine
        # actually holds, not what register() happened to see.
        server.refresh_statistics()
        catalog.register(spec.name, server)
        if spec.retry is not None:
            retries[spec.name] = spec.retry
    interface = FederatedInterface(catalog, retries=retries)
    return Federation(catalog, interface, clock, metrics, tracer, profile)
