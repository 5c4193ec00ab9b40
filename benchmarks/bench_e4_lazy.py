"""E4 — lazy vs eager evaluation (Sections 2, 5.1).

"Only those tuples that are required by the AI system will be produced
rather than eagerly computing the entire result relation" — the lazy side
of the single-solution vs all-solutions mismatch.

Workload: a large join view is cached; a pure-producer query over it is
then consumed partially.  Sweep the number of solutions the consumer
actually pulls and compare tuples produced under lazy vs eager plans.

Expected shape: eager always produces the full result; lazy production
scales with consumption and wins increasingly as fewer solutions are used.
"""

from __future__ import annotations

import pytest

from repro.advice.language import AdviceSet
from repro.advice.view_spec import annotate
from repro.caql.parser import parse_query
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.remote.server import RemoteDBMS
from repro.workloads.synthetic import chain

from benchmarks.harness import format_table, record

CONSUMED = [1, 5, 25, 100, None]  # None = drain everything


def make_cms(lazy: bool) -> CacheManagementSystem:
    server = RemoteDBMS()
    for table in chain(length=2, rows_per_relation=300, domain=60, seed=41).tables:
        server.load_table(table)
    return CacheManagementSystem(server, features=CMSFeatures(lazy=lazy))


def run_consumption(lazy: bool, consume: int | None) -> dict:
    cms = make_cms(lazy)
    # Warm the cache with the join, then query it as a pure producer.
    warm = parse_query("warm(X, Y, Z) :- r0(X, Y), r1(Y, Z)")
    cms.query(warm).fetch_all()
    view = annotate(parse_query("dpairs(X, Z) :- r0(X, Y), r1(Y, Z)"), "^^")
    cms.begin_session(AdviceSet.from_views([view]))
    produced_before = cms.metrics.get("lazy.tuples_produced") + cms.metrics.get(
        "eager.tuples_produced"
    )
    stream = cms.query(parse_query("dpairs(X, Z) :- r0(X, Y), r1(Y, Z)"))
    pulled = 0
    while consume is None or pulled < consume:
        if stream.next() is None:
            break
        pulled += 1
    produced = (
        cms.metrics.get("lazy.tuples_produced")
        + cms.metrics.get("eager.tuples_produced")
        - produced_before
    )
    return {"lazy_stream": stream.lazy, "pulled": pulled, "produced": produced}


@pytest.fixture(scope="module")
def results():
    out = {}
    for consume in CONSUMED:
        out[("lazy", consume)] = run_consumption(True, consume)
        out[("eager", consume)] = run_consumption(False, consume)
    return out


def test_report(results):
    rows = []
    for consume in CONSUMED:
        label = "all" if consume is None else consume
        for mode in ("lazy", "eager"):
            r = results[(mode, consume)]
            rows.append([label, mode, r["pulled"], r["produced"]])
    headers = ["solutions wanted", "mode", "pulled", "tuples produced"]
    record(
        "E4",
        "lazy vs eager production of a cached join view",
        format_table(headers, rows),
        notes="Claim: lazy evaluation produces only what the IE consumes.",
        data={"headers": headers, "rows": rows},
    )


def test_lazy_stream_is_lazy(results):
    assert results[("lazy", 1)]["lazy_stream"]
    assert not results[("eager", 1)]["lazy_stream"]


@pytest.mark.parametrize("consume", [c for c in CONSUMED if c is not None])
def test_lazy_production_tracks_consumption(results, consume):
    r = results[("lazy", consume)]
    assert r["produced"] <= r["pulled"] + 1


@pytest.mark.parametrize("consume", [1, 5, 25])
def test_eager_overproduces_for_partial_consumption(results, consume):
    eager = results[("eager", consume)]
    lazy = results[("lazy", consume)]
    assert eager["produced"] > lazy["produced"]


def test_full_drain_costs_match(results):
    lazy = results[("lazy", None)]
    eager = results[("eager", None)]
    assert lazy["pulled"] == eager["pulled"]
