"""The naive per-backend loose-coupling baseline.

The federation's counterpart of :class:`~repro.baselines.loose.LooseCoupling`:
every query is scattered to its home backends and joined on the
workstation, but with none of BrAID's machinery — no cache, no advice, no
cross-backend semijoin ship-bindings, no short-circuiting, no batching.
Each backend ships its full (selection-filtered) share of every query,
every time.  E19 measures what that costs against the federated CMS.
"""

from __future__ import annotations

from repro.common.metrics import CACHE_MISSES
from repro.logic.builtins import BuiltinRegistry
from repro.relational.relation import Relation
from repro.caql.psj import PSJQuery
from repro.baselines.base import BaselineInterface
from repro.federation.interface import FederatedInterface


class NaiveFederation(BaselineInterface):
    """Loose coupling against a federation: scatter everything, reduce
    nothing."""

    name = "naive-federation"

    def __init__(
        self, interface: FederatedInterface, builtins: BuiltinRegistry | None = None
    ):
        if interface.semijoin:
            raise ValueError(
                "NaiveFederation needs a semijoin=False FederatedInterface "
                "(the whole point is shipping parts unreduced)"
            )
        self.remote = None  # no single server behind a federation
        self.clock = interface.clock
        self.metrics = interface.metrics
        self.profile = interface.local_profile
        self.builtins = builtins if builtins is not None else BuiltinRegistry()
        self.rdi = interface

    def _answer_psj(self, psj: PSJQuery) -> Relation:
        self.metrics.incr(CACHE_MISSES)
        return self.rdi.fetch(psj)
