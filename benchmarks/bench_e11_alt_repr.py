"""E11 — co-existing alternative representations (Section 5.2).

"The CMS frequently maintains co-existing, alternative representations of
the same relation ... one where it serves as a producer of values in
sequence (and can thus best be represented as a generator) and another
where it needs repeatedly to be searched for particular values (and can
thus best be represented as an appropriately indexed extension). ...  In
many cases, the CMS is able to use a single instance of the relation in
the cache ... to represent more than one of these uses."

Workload: one relation used both ways in a session — streamed as a
producer, then probed by key many times.

Expected shape: one stored cache element serves both uses (no duplicate
storage); the probes hit the index; the stream sees the same data.
"""

from __future__ import annotations

import pytest

from repro.advice.language import AdviceSet
from repro.advice.path_expression import Cardinality, QueryPattern, Sequence
from repro.advice.view_spec import annotate
from repro.caql.parser import parse_query
from repro.core.cms import CacheManagementSystem
from repro.remote.server import RemoteDBMS
from repro.workloads.synthetic import chain

from benchmarks.harness import format_table, record

PROBES = 30
ROWS = 1500


def make_session() -> CacheManagementSystem:
    server = RemoteDBMS()
    for table in chain(length=1, rows_per_relation=ROWS, domain=ROWS // 3, seed=61).tables:
        server.load_table(table)
    cms = CacheManagementSystem(server)
    stream_use = annotate(parse_query("dstream(A, B) :- r0(A, B)"), "^^")
    lookup_use = annotate(parse_query("dlookup(A, B) :- r0(A, B)"), "?^")
    path = Sequence(
        (
            QueryPattern("dstream", ("A^", "B^")),
            Sequence(
                (QueryPattern("dlookup", ("A?", "B^")),),
                lower=0,
                upper=Cardinality("A"),
            ),
        ),
        lower=1,
        upper=1,
    )
    cms.begin_session(AdviceSet.from_views([stream_use, lookup_use], path_expression=path))
    return cms


def run_session() -> dict:
    cms = make_session()
    # Use 1: stream the relation as a producer (lazy consumption).
    stream = cms.query(parse_query("dstream(A, B) :- r0(A, B)"))
    first_rows = [stream.next() for _ in range(5)]
    # Use 2: keyed probes.
    for index in range(PROBES):
        key = index % (ROWS // 3)
        cms.query(parse_query(f"dlookup({key}, B) :- r0({key}, B)")).fetch_all()
    stats = cms.cache_statistics()
    return {
        "first_rows": first_rows,
        "elements_for_r0_scan": len(
            [
                e
                for e in cms.cache.elements()
                if e.definition.predicates() == ["r0"]
                and not e.definition.conditions
            ]
        ),
        "total_elements": stats["elements"],
        "index_builds": cms.metrics.get("cache.index_builds"),
        "requests": cms.metrics.get("remote.requests"),
        "time": cms.clock.now,
        "local_tuples": cms.metrics.get("cache.tuples_processed"),
    }


@pytest.fixture(scope="module")
def results():
    return run_session()


def test_report(results):
    rows = [
        ["full-scan elements stored", results["elements_for_r0_scan"]],
        ["total cache elements", results["total_elements"]],
        ["index builds", results["index_builds"]],
        ["remote requests", results["requests"]],
        ["local tuples touched", results["local_tuples"]],
        ["sim time (s)", results["time"]],
    ]
    headers = ["measure", "value"]
    record(
        "E11",
        f"one relation, two uses (stream + {PROBES} keyed probes)",
        format_table(headers, rows),
        notes="Claim: a single stored instance serves both uses; probes use the index.",
        data={"headers": headers, "rows": rows},
    )


def test_single_shared_instance(results):
    """Both uses are backed by one full-scan element, not two copies."""
    assert results["elements_for_r0_scan"] == 1


def test_stream_produced_rows(results):
    assert all(row is not None for row in results["first_rows"])


def test_probes_did_not_refetch(results):
    # One data fetch for the relation; probes are local.
    assert results["requests"] <= 4


def test_index_supported_probes(results):
    assert results["index_builds"] >= 1
    # Far fewer local tuples than PROBES * ROWS scans would need.
    assert results["local_tuples"] < PROBES * ROWS / 5
