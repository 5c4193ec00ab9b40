"""E8 — advice-modified replacement (Sections 4.2.2, 5.4).

The cache uses "an LRU scheme which may be modified due to advi[c]e".  The
paper's tracking example: if the path expression says d1 "will be required
for one of the next two queries ... it is clear that d1 is not the best
candidate" for replacement, even if it is the least recently used element.

Workload: the paper's ideal-knowledge case — the path expression lists the
session's query sequence exactly: a *hot* view (a full r0 scan) recurs
every round, interleaved with one-shot filler views over r1 (disjoint
slices, so nothing is derivable across them).  The cache is too small for
everything.  Plain LRU evicts the hot element whenever filler results pile
up; advised replacement sees that passed fillers are dead (distance None)
and the hot view is still ahead, and evicts fillers instead.

Expected shape: advised replacement re-fetches the hot view less often —
fewer remote requests and lower simulated time.
"""

from __future__ import annotations

import pytest

from repro.advice.language import AdviceSet
from repro.advice.path_expression import QueryPattern, Sequence
from repro.advice.view_spec import annotate
from repro.caql.parser import parse_query
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.remote.server import RemoteDBMS
from repro.workloads.synthetic import chain

from benchmarks.harness import format_table, record

ROUNDS = 6
FILLERS_PER_ROUND = 5
SLICE = 40


def make_cms(advised: bool) -> CacheManagementSystem:
    server = RemoteDBMS()
    for table in chain(length=2, rows_per_relation=400, domain=400, seed=47).tables:
        server.load_table(table)
    return CacheManagementSystem(
        server,
        capacity_bytes=9_000,  # hot scan (~6.5 kB) + a couple of fillers
        features=CMSFeatures(
            advice_replacement=advised,
            # A uniform value (plain LRU) in both configurations so the
            # measured delta isolates the paper's claim (advice over
            # LRU); cost-based replacement is E21's subject, not E8's.
            cost_replacement=False,
            prefetch=False,
            generalization=False,
        ),
    )


def session_plan() -> list[tuple[str, str]]:
    """(view name, query text) in emission order."""
    plan: list[tuple[str, str]] = []
    filler_index = 0
    for _round in range(ROUNDS):
        plan.append(("dhot", "dhot(A, B) :- r0(A, B)"))
        for _ in range(FILLERS_PER_ROUND):
            low = (filler_index * SLICE) % 360
            name = f"df{filler_index}"
            plan.append(
                (name, f"{name}(A, B) :- r1(A, B), A >= {low}, A < {low + SLICE}")
            )
            filler_index += 1
    return plan


def make_advice(plan: list[tuple[str, str]]) -> AdviceSet:
    views = {}
    patterns = []
    for name, text in plan:
        if name not in views:
            views[name] = annotate(parse_query(text), "^^")
        patterns.append(QueryPattern(name))
    path = Sequence(tuple(patterns), lower=1, upper=1)
    return AdviceSet.from_views(list(views.values()), path_expression=path)


def run_session(advised: bool) -> dict:
    plan = session_plan()
    cms = make_cms(advised)
    cms.begin_session(make_advice(plan))
    for _name, text in plan:
        cms.query(parse_query(text)).fetch_all()
    return {
        "requests": cms.metrics.get("remote.requests"),
        "shipped": cms.metrics.get("remote.tuples_shipped"),
        "evictions": cms.cache.eviction_count,
        "exact_hits": cms.metrics.get("cache.hits.exact"),
        "time": cms.clock.now,
    }


@pytest.fixture(scope="module")
def results():
    return {"advised": run_session(True), "plain-lru": run_session(False)}


def test_report(results):
    rows = [
        [name, r["requests"], r["shipped"], r["exact_hits"], r["evictions"], r["time"]]
        for name, r in results.items()
    ]
    headers = ["policy", "remote reqs", "tuples shipped", "exact hits", "evictions", "sim time (s)"]
    record(
        "E8",
        f"hot view + one-shot filler churn under cache pressure ({ROUNDS} rounds)",
        format_table(headers, rows),
        notes="Claim: path-expression distance keeps the predicted-to-recur element resident.",
        data={"headers": headers, "rows": rows},
    )


def test_advised_saves_remote_requests(results):
    assert results["advised"]["requests"] < results["plain-lru"]["requests"]


def test_advised_keeps_hot_view_hitting(results):
    assert results["advised"]["exact_hits"] > results["plain-lru"]["exact_hits"]


def test_advised_saves_time(results):
    assert results["advised"]["time"] < results["plain-lru"]["time"]


def test_pressure_actually_exists(results):
    for r in results.values():
        assert r["evictions"] > 0
