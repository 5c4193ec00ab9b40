"""E17 — semijoin-reduced, batched remote fetches (ship bindings, not base relations).

The paper's cost model is dominated by workstation–server communication,
and PR-3's planner had only two remote shapes: ship the whole query, or
pull each uncovered relation unreduced.  This experiment measures the two
new reductions end to end:

* **semijoin** — when a hybrid plan joins a cached part to a remote one,
  ship the cache part's distinct join-column values as an IN-list and
  fetch only the matching remote tuples.  Shipped bindings are charged as
  uplink (``remote.bindings_shipped``), so the reduction is honest: it is
  adopted only where bindings cost less than the transfer they save.
* **batching** — independently-needed remote requests (here:
  path-expression prefetch companions) ride one round trip, paying
  ``remote_latency`` once.

Expected shape, on two workloads (suppliers and bill-of-materials):
identical answers tuple-for-tuple, with the optimized configuration
strictly lower on simulated seconds, remote requests, and tuples shipped
than the PR-3 baseline (``semijoin=False, batching=False``).  A cache
part whose binding set turns out empty proves the join empty locally and
issues **zero** round trips.  Same-seed runs are byte-identical: metrics
snapshots match and trace fingerprints agree.
"""

from __future__ import annotations

import pytest

from repro.advice.language import AdviceSet
from repro.advice.path_expression import QueryPattern, Sequence
from repro.advice.view_spec import annotate
from repro.caql.parser import parse_query
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.obs import Tracer
from repro.remote.server import RemoteDBMS
from repro.workloads.bom import bom
from repro.workloads.suppliers import suppliers

from benchmarks.harness import format_table, record, record_trace

WORKLOADS = ("suppliers", "bom")

COUNTERS = {
    "requests": "remote.requests",
    "shipped": "remote.tuples_shipped",
    "bindings": "remote.bindings_shipped",
    "semijoin_requests": "remote.semijoin_requests",
    "batched_requests": "remote.batched_requests",
}


def features(optimized: bool) -> CMSFeatures:
    """Defaults (semijoin + batching on) vs the PR-3 baseline."""
    return CMSFeatures() if optimized else CMSFeatures(semijoin=False, batching=False)


def _session(server: RemoteDBMS, optimized: bool, advice=None) -> CacheManagementSystem:
    server.tracer = Tracer(server.clock)
    cms = CacheManagementSystem(server, features=features(optimized))
    cms.begin_session(advice)
    return cms


def _measure(cms: CacheManagementSystem, warm: str, query: str, empty: str | None) -> dict:
    """Run warm + join query (+ an empty-binding query), collect the ledger."""
    cms.query(parse_query(warm)).fetch_all()
    answers = cms.query(parse_query(query)).fetch_all()
    out = {"answers": sorted(answers)}
    if empty is not None:
        before = cms.metrics.snapshot()
        out["empty_answers"] = len(cms.query(parse_query(empty)).fetch_all())
        out["empty_requests"] = cms.metrics.diff(before).get("remote.requests", 0)
    for key, counter in COUNTERS.items():
        out[key] = cms.metrics.get(counter)
    out["simulated_seconds"] = cms.clock.now
    out["snapshot"] = cms.metrics.snapshot()
    out["fingerprint"] = cms.tracer.fingerprint()
    out["trace_jsonl"] = cms.tracer.to_jsonl()
    return out


# -- suppliers: selective supplier view bound into a shipment fetch -------------------

SUP_WARM = "decent(S, City) :- supplier(S, N, City, R), R >= 6"
SUP_QUERY = "q(S, P) :- supplier(S, N, City, R), R >= 6, shipment(S, P, Q, C), Q > 0"
#: The City pin keeps no supplier at all: the binding set is empty, the
#: join is provably empty locally, and no round trip should be issued.
SUP_EMPTY = "qe(S, P) :- supplier(S, N, City, R), R >= 6, City = nocity, shipment(S, P, Q, C)"


def suppliers_advice() -> AdviceSet:
    """Three grouped views: querying the first prefetches the other two."""
    decent = annotate(parse_query(SUP_WARM), "^^")
    heavy = annotate(parse_query("dheavy(P) :- part(P, N, Col, W), W > 40"), "^")
    bulk = annotate(parse_query("dbulk(S, P) :- shipment(S, P, Q, C), Q >= 500"), "^^")
    path = Sequence(
        (
            QueryPattern("decent", ("S^", "City^")),
            QueryPattern("dheavy", ("P^",)),
            QueryPattern("dbulk", ("S^", "P^")),
        ),
        lower=1,
        upper=1,
    )
    return AdviceSet.from_views([decent, heavy, bulk], path_expression=path)


def run_suppliers(optimized: bool) -> dict:
    server = RemoteDBMS()
    for table in suppliers(n_suppliers=30, n_parts=40, n_shipments=400, seed=11).tables:
        server.load_table(table)
    cms = _session(server, optimized, suppliers_advice())
    return _measure(cms, SUP_WARM, SUP_QUERY, SUP_EMPTY)


# -- bill of materials: costly parts bound into the assembly fetch --------------------

BOM_WARM = "costly(P) :- basic_part(P, C, W), C > 80"
BOM_QUERY = "qb(A, P) :- assembly(A, P, N), basic_part(P, C, W), C > 80"


def bom_advice() -> AdviceSet:
    costly = annotate(parse_query(BOM_WARM), "^")
    heavy = annotate(parse_query("dheavyp(P) :- basic_part(P, C, W), W > 20"), "^")
    cheap = annotate(parse_query("dcheap(P) :- basic_part(P, C, W), C < 20"), "^")
    path = Sequence(
        (
            QueryPattern("costly", ("P^",)),
            QueryPattern("dheavyp", ("P^",)),
            QueryPattern("dcheap", ("P^",)),
        ),
        lower=1,
        upper=1,
    )
    return AdviceSet.from_views([costly, heavy, cheap], path_expression=path)


def run_bom(optimized: bool) -> dict:
    server = RemoteDBMS()
    for table in bom(depth=4, fanout=4, basic_parts=120, seed=19).tables:
        server.load_table(table)
    cms = _session(server, optimized, bom_advice())
    return _measure(cms, BOM_WARM, BOM_QUERY, None)


RUNNERS = {"suppliers": run_suppliers, "bom": run_bom}


@pytest.fixture(scope="module")
def results():
    return {
        (name, optimized): RUNNERS[name](optimized)
        for name in WORKLOADS
        for optimized in (True, False)
    }


def test_report(results):
    rows = []
    for name in WORKLOADS:
        for optimized in (True, False):
            r = results[(name, optimized)]
            rows.append(
                [
                    name,
                    "semijoin+batch" if optimized else "baseline",
                    r["requests"],
                    r["shipped"],
                    r["bindings"],
                    r["batched_requests"],
                    r["simulated_seconds"],
                ]
            )
    headers = [
        "workload",
        "configuration",
        "remote reqs",
        "tuples shipped",
        "bindings shipped",
        "batched reqs",
        "sim time (s)",
    ]
    record(
        "E17",
        "semijoin-reduced, batched remote fetches vs the unreduced baseline",
        format_table(headers, rows),
        notes=(
            "Claim: shipping the cache part's bindings as an IN-list and "
            "batching prefetch companions strictly cuts simulated time, "
            "round trips, and tuples shipped — with identical answers; an "
            "empty binding set answers the join locally with zero round trips."
        ),
        data={"headers": headers, "rows": rows},
    )
    record_trace("E17", results[("suppliers", True)]["trace_jsonl"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_answers_identical_tuple_for_tuple(results, name):
    assert results[(name, True)]["answers"] == results[(name, False)]["answers"]
    assert len(results[(name, True)]["answers"]) > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_strictly_fewer_tuples_shipped(results, name):
    assert results[(name, True)]["shipped"] < results[(name, False)]["shipped"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_strictly_fewer_remote_requests(results, name):
    assert results[(name, True)]["requests"] < results[(name, False)]["requests"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_strictly_lower_simulated_time(results, name):
    assert (
        results[(name, True)]["simulated_seconds"]
        < results[(name, False)]["simulated_seconds"]
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_semijoin_and_batching_fired_only_when_enabled(results, name):
    on, off = results[(name, True)], results[(name, False)]
    assert on["semijoin_requests"] > 0
    assert on["bindings"] > 0  # uplink was charged for the shipped IN-list
    assert on["batched_requests"] > 0
    assert off["semijoin_requests"] == 0
    assert off["bindings"] == 0
    assert off["batched_requests"] == 0


def test_empty_binding_set_issues_zero_round_trips(results):
    optimized = results[("suppliers", True)]
    assert optimized["empty_answers"] == 0
    assert optimized["empty_requests"] == 0
    # The baseline has no binding set to prove the join empty with.
    assert results[("suppliers", False)]["empty_requests"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_runs_are_byte_identical(results, name):
    rerun = RUNNERS[name](True)
    first = results[(name, True)]
    assert rerun["snapshot"] == first["snapshot"]
    assert rerun["fingerprint"] == first["fingerprint"]
    assert rerun["trace_jsonl"] == first["trace_jsonl"]
