"""E10 — parallel cache/remote subquery execution (Sections 5, 5.3.3).

"Subqueries to the remote DBMS can be executed in parallel with the
subqueries to the Cache Manager" — in simulated time, a hybrid plan under
parallel execution costs max(local, remote) instead of local + remote.

Workload: hybrid queries whose cache-side derivation is substantial (a
large cached element to filter) while the remote side fetches the other
join operand.  Sweep the cached element's size to scale local work.

Expected shape: identical answers; the parallel configuration's simulated
time is lower, and the saving equals the overlapped (smaller) component.
"""

from __future__ import annotations

import pytest

from repro.caql.parser import parse_query
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.remote.server import RemoteDBMS
from repro.workloads.synthetic import chain

from benchmarks.harness import format_table, record

SIZES = [500, 2000, 8000]


def run_hybrid(parallel: bool, rows: int) -> dict:
    server = RemoteDBMS()
    for table in chain(length=2, rows_per_relation=rows, domain=rows // 4, seed=59).tables:
        server.load_table(table)
    cms = CacheManagementSystem(server, features=CMSFeatures(parallel=parallel))
    cms.begin_session()
    # Cache r1 wholly; r0 selective part stays remote.
    cms.query(parse_query("warm(A, B) :- r1(A, B)")).fetch_all()
    clock_before = cms.clock.now
    result = cms.query(
        parse_query("q(B, C) :- r0(1, B), r1(B, C)")
    ).fetch_all()
    return {
        "answers": len(result),
        "query_time": cms.clock.now - clock_before,
    }


@pytest.fixture(scope="module")
def results():
    out = {}
    for rows in SIZES:
        out[(True, rows)] = run_hybrid(True, rows)
        out[(False, rows)] = run_hybrid(False, rows)
    return out


def test_report(results):
    table_rows = []
    for rows in SIZES:
        for parallel in (True, False):
            r = results[(parallel, rows)]
            table_rows.append(
                [rows, "parallel" if parallel else "sequential", r["answers"], r["query_time"]]
            )
    headers = ["cached rows", "execution", "answers", "query sim time (s)"]
    record(
        "E10",
        "hybrid query: cached join operand + remote selective fetch",
        format_table(headers, table_rows),
        notes="Claim: overlapping cache and remote work cuts response time to max(local, remote).",
        data={"headers": headers, "rows": table_rows},
    )


@pytest.mark.parametrize("rows", SIZES)
def test_same_answers(results, rows):
    assert results[(True, rows)]["answers"] == results[(False, rows)]["answers"]


@pytest.mark.parametrize("rows", SIZES)
def test_parallel_is_never_slower(results, rows):
    assert results[(True, rows)]["query_time"] <= results[(False, rows)]["query_time"]


def test_parallel_strictly_faster_when_local_work_matters(results):
    big = SIZES[-1]
    assert results[(True, big)]["query_time"] < results[(False, big)]["query_time"]
