"""``repro.federation`` — the multi-backend remote layer.

BrAID behind N autonomous sources: a :class:`FederatedCatalog` maps each
base relation to its home backend, a :class:`FederatedInterface` presents
the single-RDI contract to the CMS by routing each one-backend request to
its home (the planner splits a spanning query into per-backend parts,
cross-backend joins shipped as semijoin bindings), and
:func:`build_federation` wires servers, per-backend metrics scopes, retry
budgets, and circuit breakers from declarative :class:`BackendSpec`\\ s.
See ``docs/federation.md``.
"""

from repro.federation.bootstrap import BackendSpec, Federation, build_federation
from repro.federation.catalog import FederatedCatalog
from repro.federation.interface import FederatedInterface

__all__ = [
    "BackendSpec",
    "Federation",
    "FederatedCatalog",
    "FederatedInterface",
    "build_federation",
]
