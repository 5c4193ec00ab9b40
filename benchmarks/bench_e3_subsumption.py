"""E3 — subsumption vs exact-match reuse (Sections 2, 5.3.2).

"By allowing additional processing with the cached data and using a more
general subsumption algorithm than those used previously in AI/DB
integration efforts, BrAID increases the reusability of cached data."

Workload: overlapping range queries over one relation.  A later window
contained in an earlier one is *derivable* but not an exact repeat —
exactly the case [SELL87]/[IOAN88]-style exact matching cannot exploit.

Expected shape: CMS-with-subsumption issues the fewest remote requests;
CMS-without-subsumption ≈ exact-match cache; the single-relation buffer
ships the whole relation once but wins no further transfer savings.
"""

from __future__ import annotations

import pytest

from repro.baselines.exact_cache import ExactMatchCache
from repro.baselines.relation_cache import SingleRelationBuffer
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.remote.server import RemoteDBMS
from repro.workloads.queries import StreamSpec, range_query_stream
from repro.workloads.synthetic import selection_universe

from benchmarks.harness import format_table, record, run_queries

CONTAINMENT_RATES = [0.0, 0.4, 0.8]
LENGTH = 40


def make_bridge(kind: str):
    server = RemoteDBMS()
    for table in selection_universe(rows=400, domain=1000, seed=31).tables:
        server.load_table(table)
    if kind == "cms":
        return CacheManagementSystem(server)
    if kind == "cms-no-subsumption":
        return CacheManagementSystem(server, features=CMSFeatures(subsumption=False))
    if kind == "exact":
        return ExactMatchCache(server)
    return SingleRelationBuffer(server)


def stream(containment: float):
    return range_query_stream(
        "item",
        attribute_position=2,
        arity=3,
        domain=1000,
        spec=StreamSpec(LENGTH, repetition_rate=containment, seed=int(containment * 10) + 2),
    )


BRIDGES = ("cms", "cms-no-subsumption", "exact", "relation-buffer")


@pytest.fixture(scope="module")
def results():
    out = {}
    for containment in CONTAINMENT_RATES:
        queries = stream(containment)
        for kind in BRIDGES:
            out[(kind, containment)] = run_queries(make_bridge(kind), queries)
    return out


def test_report(results):
    rows = []
    for containment in CONTAINMENT_RATES:
        for kind in BRIDGES:
            r = results[(kind, containment)]
            rows.append(
                [
                    containment,
                    kind,
                    r["remote_requests"],
                    r["tuples_shipped"],
                    r["subsumed_hits"],
                    r["exact_hits"],
                ]
            )
    headers = ["containment", "bridge", "remote reqs", "tuples shipped", "subsumed hits", "exact hits"]
    record(
        "E3",
        f"subsumption reuse over {LENGTH} overlapping range queries",
        format_table(headers, rows),
        data={"headers": headers, "rows": rows},
        notes=(
            "Claim: subsumption reuses cached windows that exact matching cannot; "
            "the gap widens with containment."
        ),
    )


@pytest.mark.parametrize("containment", CONTAINMENT_RATES[1:])
def test_subsumption_beats_exact_match(results, containment):
    assert (
        results[("cms", containment)]["remote_requests"]
        < results[("exact", containment)]["remote_requests"]
    )


@pytest.mark.parametrize("containment", CONTAINMENT_RATES[1:])
def test_subsumption_feature_is_the_cause(results, containment):
    assert (
        results[("cms", containment)]["remote_requests"]
        < results[("cms-no-subsumption", containment)]["remote_requests"]
    )


def test_subsumed_hits_grow_with_containment(results):
    hits = [results[("cms", c)]["subsumed_hits"] for c in CONTAINMENT_RATES]
    assert hits[-1] > hits[0]


def test_relation_buffer_ships_whole_relation_once(results):
    r = results[("relation-buffer", 0.0)]
    assert r["tuples_shipped"] == 400  # the whole item relation, once
