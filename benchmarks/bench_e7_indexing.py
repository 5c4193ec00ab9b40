"""E7 — advice-driven attribute indexing (Sections 4.2.1, 5.3.3).

"The consumer annotation ('?') constitutes advice to the CMS that the
given attribute in the given relation occurrence is a prime candidate for
indexing" — repeated bound-argument lookups against a cached view then
become index probes instead of scans.

Workload: a generalized element answering many per-constant lookups;
compare indexing on/off on simulated time.

Expected shape: identical answers and remote costs; the indexed
configuration does less local work per lookup, and the advantage grows
with the cached relation's size.
"""

from __future__ import annotations

import pytest

from repro.advice.language import AdviceSet
from repro.advice.path_expression import Cardinality, QueryPattern, Sequence
from repro.advice.view_spec import annotate
from repro.caql.parser import parse_query
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.remote.server import RemoteDBMS
from repro.workloads.synthetic import chain

from benchmarks.harness import format_table, record

SIZES = [200, 1000, 4000]
LOOKUPS = 50


def make_cms(indexing: bool, rows: int) -> CacheManagementSystem:
    server = RemoteDBMS()
    workload = chain(length=1, rows_per_relation=rows, domain=rows // 2, seed=43)
    for table in workload.tables:
        server.load_table(table)
    return CacheManagementSystem(server, features=CMSFeatures(indexing=indexing))


def make_advice() -> AdviceSet:
    view = annotate(parse_query("dlookup(A, B) :- r0(A, B)"), "?^")
    path = Sequence(
        (QueryPattern("dlookup", ("A?", "B^")),), lower=0, upper=Cardinality("A")
    )
    return AdviceSet.from_views([view], path_expression=path)


def run_lookups(indexing: bool, rows: int) -> dict:
    cms = make_cms(indexing, rows)
    cms.begin_session(make_advice())
    for index in range(LOOKUPS):
        key = index % (rows // 2)
        cms.query(parse_query(f"dlookup({key}, B) :- r0({key}, B)")).fetch_all()
    return {
        "time": cms.clock.now,
        "local_tuples": cms.metrics.get("cache.tuples_processed"),
        "index_builds": cms.metrics.get("cache.index_builds"),
        "requests": cms.metrics.get("remote.requests"),
    }


@pytest.fixture(scope="module")
def results():
    out = {}
    for rows in SIZES:
        out[(True, rows)] = run_lookups(True, rows)
        out[(False, rows)] = run_lookups(False, rows)
    return out


def test_report(results):
    table_rows = []
    for rows in SIZES:
        for indexing in (True, False):
            r = results[(indexing, rows)]
            table_rows.append(
                [
                    rows,
                    "indexed" if indexing else "scan",
                    r["local_tuples"],
                    r["time"],
                    r["index_builds"],
                ]
            )
    headers = ["cached rows", "mode", "local tuples touched", "sim time (s)", "index builds"]
    record(
        "E7",
        f"{LOOKUPS} bound-argument lookups against a cached element",
        format_table(headers, table_rows),
        notes="Claim: consumer-annotation indexing turns scans into probes; gain grows with size.",
        data={"headers": headers, "rows": table_rows},
    )


def test_index_built_from_annotation(results):
    assert results[(True, SIZES[0])]["index_builds"] >= 1
    assert results[(False, SIZES[0])]["index_builds"] == 0


@pytest.mark.parametrize("rows", SIZES)
def test_indexed_touches_fewer_tuples(results, rows):
    assert (
        results[(True, rows)]["local_tuples"]
        < results[(False, rows)]["local_tuples"]
    )


def test_advantage_grows_with_size(results):
    gains = [
        results[(False, rows)]["time"] - results[(True, rows)]["time"]
        for rows in SIZES
    ]
    assert gains == sorted(gains)


def test_same_remote_cost(results):
    for rows in SIZES:
        assert results[(True, rows)]["requests"] == results[(False, rows)]["requests"]
