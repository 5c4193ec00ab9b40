"""E5 — path-expression-driven prefetching (Sections 4.2.2, 5.3.1).

"The sequence grouping in a path expression indicates that all items in
that group are likely to be evaluated when the first item is evaluated" —
so when the session's first view is queried, its sequence companions are
fetched ahead (in general form), turning later queries into cache hits.

Expected shape: with prefetching, later queries in the predicted sequence
need no new remote data requests; prefetching costs the same number of
fetches up front, so total requests do not increase.
"""

from __future__ import annotations

import pytest

from repro.advice.language import AdviceSet
from repro.advice.path_expression import QueryPattern, Sequence
from repro.advice.view_spec import annotate
from repro.caql.parser import parse_query
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.remote.server import RemoteDBMS
from repro.workloads.genealogy import genealogy

from benchmarks.harness import format_table, record


def make_cms(prefetch: bool) -> CacheManagementSystem:
    server = RemoteDBMS()
    for table in genealogy(generations=4, branching=3, roots=2, seed=29).tables:
        server.load_table(table)
    return CacheManagementSystem(server, features=CMSFeatures(prefetch=prefetch))


def make_advice() -> AdviceSet:
    """A session that walks parents, then sexes, then ages — a sequence."""
    dparents = annotate(parse_query("dparents(P, C) :- parent(P, C)"), "^^")
    dmale = annotate(parse_query("dmale(P) :- male(P)"), "^")
    dages = annotate(parse_query("dages(P, A) :- age(P, A)"), "^^")
    path = Sequence(
        (
            QueryPattern("dparents", ("P^", "C^")),
            QueryPattern("dmale", ("P^",)),
            QueryPattern("dages", ("P^", "A^")),
        ),
        lower=1,
        upper=1,
    )
    return AdviceSet.from_views([dparents, dmale, dages], path_expression=path)


SESSION = [
    "dparents(P, C) :- parent(P, C)",
    "dmale(P) :- male(P)",
    "dages(P, A) :- age(P, A)",
]


def run_session(prefetch: bool) -> dict:
    cms = make_cms(prefetch)
    cms.begin_session(make_advice())
    first_query_requests = None
    for index, text in enumerate(SESSION):
        cms.query(parse_query(text)).fetch_all()
        if index == 0:
            first_query_requests = cms.metrics.get("remote.requests")
    return {
        "total_requests": cms.metrics.get("remote.requests"),
        "after_first": first_query_requests,
        "late_requests": cms.metrics.get("remote.requests") - first_query_requests,
        "prefetches": cms.metrics.get("cache.prefetches"),
        "time": cms.clock.now,
    }


@pytest.fixture(scope="module")
def results():
    return {"prefetch": run_session(True), "no-prefetch": run_session(False)}


def test_report(results):
    rows = [
        [name, r["total_requests"], r["late_requests"], r["prefetches"], r["time"]]
        for name, r in results.items()
    ]
    headers = ["configuration", "total remote reqs", "reqs after 1st query", "prefetches", "sim time (s)"]
    record(
        "E5",
        "prefetching sequence companions predicted by the path expression",
        format_table(headers, rows),
        data={"headers": headers, "rows": rows},
        notes=(
            "Claim: with prefetching, queries after the first need no new remote "
            "data; total requests do not grow."
        ),
    )


def test_prefetch_happens(results):
    assert results["prefetch"]["prefetches"] == 2
    assert results["no-prefetch"]["prefetches"] == 0


def test_later_queries_are_free_with_prefetch(results):
    assert results["prefetch"]["late_requests"] == 0
    assert results["no-prefetch"]["late_requests"] > 0


def test_total_requests_not_increased(results):
    assert results["prefetch"]["total_requests"] <= results["no-prefetch"]["total_requests"]
