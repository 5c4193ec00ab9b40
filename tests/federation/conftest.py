"""Shared builders for the federation tests.

One tiny three-backend world, rebuilt fresh per test:

* ``alpha`` owns ``sup(s, city)``       — 4 suppliers,
* ``beta``  owns ``part(p, color)``     — 3 parts,
* ``gamma`` owns ``ship(s, p, qty)``    — 5 shipments (one dangling).

Every value is an integer so queries stay parser-friendly, and every
cross-backend join has a known oracle via :func:`evaluate_psj` over the
same tables.
"""

from __future__ import annotations

from repro.common.clock import SimClock
from repro.obs.tracer import Tracer
from repro.relational.relation import relation_from_columns
from repro.caql.eval import evaluate_psj, psj_of
from repro.caql.parser import parse_query
from repro.federation import BackendSpec, build_federation

SPAN3 = "q(S, C, P) :- sup(S, C), ship(S, P, Q), part(P, X)"
SPAN2 = "q2(S, Q) :- sup(S, C), ship(S, P, Q)"
LOCAL = "q3(P) :- part(P, 1)"
EMPTY = "q4(S) :- sup(S, 999), ship(S, P, Q)"
SURVIVOR = "q7(C) :- sup(S, C), ship(S, P, Q)"


def base_tables() -> dict:
    return {
        "sup": relation_from_columns(
            "sup", s=[1, 2, 3, 4], city=[100, 200, 300, 100]
        ),
        "part": relation_from_columns("part", p=[10, 11, 12], color=[1, 2, 1]),
        "ship": relation_from_columns(
            "ship",
            s=[1, 1, 2, 3, 9],
            p=[10, 11, 10, 12, 10],
            qty=[5, 3, 7, 1, 2],
        ),
    }


def three_backend_specs(retries=None, engines=None) -> list[BackendSpec]:
    retries = retries or {}
    engines = engines or {}
    data = base_tables()
    owned = {"alpha": "sup", "beta": "part", "gamma": "ship"}
    return [
        BackendSpec(
            name,
            tables=(data[table],),
            engine=engines.get(name, "python"),
            retry=retries.get(name),
        )
        for name, table in owned.items()
    ]


def make_federation(retries=None, faults=None, engines=None, with_tracer=False):
    clock = SimClock()
    tracer = Tracer(clock) if with_tracer else None
    federation = build_federation(
        three_backend_specs(retries, engines), clock=clock, tracer=tracer
    )
    for name, policy in (faults or {}).items():
        federation.set_backend_faults(name, policy)
    return federation


def psj(text: str):
    return psj_of(parse_query(text))


def oracle(text: str) -> set:
    data = base_tables()
    return set(evaluate_psj(psj(text), data.__getitem__).rows)


def trace_events(tracer) -> list:
    """Every recorded event (orphans + in-span), in recording order."""
    events = list(tracer.orphan_events)
    for span in tracer.spans:
        events.extend(span.events)
    return events
