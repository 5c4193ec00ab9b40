"""E6 — query generalization (Sections 4.2, 5.3.1).

"With generalization, the CMS retrieves more data from the DBMS (and
caches it) than is required for a given CAQL query.  The assumption is
that later queries can be solved using the additional data and thus reduce
the number of separate DBMS requests."

Workload: per-constant lookups (one view, many different constants) under
advice predicting the repetition.  Sweep the number of distinct constants
queried and compare generalization on/off.

Expected shape: without generalization every new constant is a remote
request; with it, one generalized fetch serves every later lookup.  The
crossover: for a single lookup, generalization ships more tuples.
"""

from __future__ import annotations

import pytest

from repro.advice.language import AdviceSet
from repro.advice.path_expression import Cardinality, QueryPattern, Sequence
from repro.advice.view_spec import annotate
from repro.caql.parser import parse_query
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.remote.server import RemoteDBMS
from repro.workloads.genealogy import genealogy

from benchmarks.harness import format_table, record

LOOKUPS = [1, 3, 6, 12]


def make_cms(generalization: bool) -> CacheManagementSystem:
    server = RemoteDBMS()
    for table in genealogy(generations=4, branching=3, roots=2, seed=37).tables:
        server.load_table(table)
    return CacheManagementSystem(
        server, features=CMSFeatures(generalization=generalization)
    )


def make_advice() -> AdviceSet:
    view = annotate(parse_query("dkids(P, C) :- parent(P, C)"), "?^")
    path = Sequence(
        (QueryPattern("dkids", ("P?", "C^")),), lower=0, upper=Cardinality("P")
    )
    return AdviceSet.from_views([view], path_expression=path)


def run_lookups(generalization: bool, count: int) -> dict:
    cms = make_cms(generalization)
    cms.begin_session(make_advice())
    for index in range(count):
        person = f"p{index}"
        cms.query(
            parse_query(f"dkids({person}, C) :- parent({person}, C)")
        ).fetch_all()
    return {
        "requests": cms.metrics.get("remote.requests"),
        "shipped": cms.metrics.get("remote.tuples_shipped"),
        "generalizations": cms.metrics.get("cache.generalizations"),
        "time": cms.clock.now,
    }


@pytest.fixture(scope="module")
def results():
    out = {}
    for count in LOOKUPS:
        out[(True, count)] = run_lookups(True, count)
        out[(False, count)] = run_lookups(False, count)
    return out


def test_report(results):
    rows = []
    for count in LOOKUPS:
        for generalization in (True, False):
            r = results[(generalization, count)]
            rows.append(
                [
                    count,
                    "generalize" if generalization else "as-asked",
                    r["requests"],
                    r["shipped"],
                    r["time"],
                ]
            )
    headers = ["distinct lookups", "mode", "remote reqs", "tuples shipped", "sim time (s)"]
    record(
        "E6",
        "per-constant lookups under repetition advice",
        format_table(headers, rows),
        data={"headers": headers, "rows": rows},
        notes=(
            "Claim: one generalized fetch amortizes over repeated lookups; "
            "for a single lookup it over-fetches (the paper's noted trade-off)."
        ),
    )


def test_generalization_fires_once(results):
    for count in LOOKUPS:
        assert results[(True, count)]["generalizations"] == 1


def test_requests_flat_with_generalization(results):
    requests = [results[(True, count)]["requests"] for count in LOOKUPS]
    assert requests[0] == requests[-1]  # independent of lookup count


def test_requests_grow_without_generalization(results):
    requests = [results[(False, count)]["requests"] for count in LOOKUPS]
    assert requests == sorted(requests)
    assert requests[-1] > requests[0]


def test_crossover(results):
    # Single lookup: generalization ships more tuples (over-fetch).
    assert results[(True, 1)]["shipped"] > results[(False, 1)]["shipped"]
    # Many lookups: generalization needs fewer requests and wins on time.
    assert results[(True, 12)]["requests"] < results[(False, 12)]["requests"]
    assert results[(True, 12)]["time"] < results[(False, 12)]["time"]
