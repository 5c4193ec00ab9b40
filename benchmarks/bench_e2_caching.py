"""E2 — result caching vs loose coupling (Sections 1, 2, 5.3).

Backtracking and recursion make the IE repeat queries; caching eliminates
the repeated remote requests that loose coupling pays for.  Sweep the
repetition rate of a selection-query stream and compare bridges.

Expected shape: at repetition 0 the CMS ties loose coupling (plus nothing);
as repetition grows, CMS/exact-cache requests fall toward the number of
distinct queries while loose coupling stays at stream length.
"""

from __future__ import annotations

import pytest

from repro.baselines.exact_cache import ExactMatchCache
from repro.baselines.loose import LooseCoupling
from repro.core.cms import CacheManagementSystem
from repro.remote.server import RemoteDBMS
from repro.workloads.genealogy import genealogy
from repro.workloads.queries import StreamSpec, repeated_selection_stream

from benchmarks.harness import format_table, record, run_queries

RATES = [0.0, 0.3, 0.6, 0.9]
LENGTH = 60


def make_bridge(kind: str):
    server = RemoteDBMS()
    for table in genealogy(seed=23).tables:
        server.load_table(table)
    if kind == "cms":
        return CacheManagementSystem(server)
    if kind == "loose":
        return LooseCoupling(server)
    return ExactMatchCache(server)


def stream(rate: float):
    people = [f"p{i}" for i in range(22)]
    return repeated_selection_stream(
        "q(Y) :- parent($C, Y)", people, StreamSpec(LENGTH, rate, seed=int(rate * 10) + 1)
    )


@pytest.fixture(scope="module")
def results():
    out = {}
    for rate in RATES:
        queries = stream(rate)
        for kind in ("cms", "exact", "loose"):
            out[(kind, rate)] = run_queries(make_bridge(kind), queries)
    return out


def test_report(results):
    rows = []
    for rate in RATES:
        for kind in ("cms", "exact", "loose"):
            r = results[(kind, rate)]
            rows.append(
                [rate, kind, r["remote_requests"], r["tuples_shipped"], r["simulated_seconds"]]
            )
    headers = ["repetition", "bridge", "remote requests", "tuples shipped", "sim time (s)"]
    record(
        "E2",
        f"caching vs loose coupling, {LENGTH}-query selection stream",
        format_table(headers, rows),
        notes="Claim: caching removes repeated remote requests; loose coupling pays full price.",
        data={"headers": headers, "rows": rows},
    )


@pytest.mark.parametrize("rate", RATES[1:])
def test_cms_beats_loose_under_repetition(results, rate):
    assert (
        results[("cms", rate)]["remote_requests"]
        < results[("loose", rate)]["remote_requests"]
    )
    assert (
        results[("cms", rate)]["simulated_seconds"]
        < results[("loose", rate)]["simulated_seconds"]
    )


def test_loose_always_pays_stream_length(results):
    for rate in RATES:
        # one data request per query (plus metadata round trips).
        assert results[("loose", rate)]["misses"] == LENGTH


def test_benefit_grows_with_repetition(results):
    savings = [
        results[("loose", rate)]["remote_requests"]
        - results[("cms", rate)]["remote_requests"]
        for rate in RATES
    ]
    assert savings == sorted(savings)


def test_cms_matches_exact_cache_on_pure_repetition(results):
    # With no overlap beyond exact repeats, subsumption adds nothing: both
    # caching bridges should issue a similar number of data requests.
    cms = results[("cms", 0.9)]["remote_requests"]
    exact = results[("exact", 0.9)]["remote_requests"]
    assert abs(cms - exact) <= 3
