"""E18 — columnar batch kernels vs the tuple engine (wall clock, a report).

Unlike E1–E17, whose headline numbers are *simulated* communication
costs, E18 measures the implementation itself: raw tuples/second of the
columnar kernels (column-sweep filter, index-gather selection, hash
join) next to the tuple operators, on identical inputs with identical
answers.  Both engines run the same generated predicate
(``repro.relational.expressions``), so what the table shows is what the
batch *layout* still buys: one call per batch instead of one per row,
and gathered columns instead of concatenated row tuples.

Workload (fixed seed-free generators — identical relations every run,
so the answers and row counts in ``results/E18.json`` never move; only
the timings do):

* **scan** — a pass-all predicate over 10^5 rows.
* **filter** — a ~1% selective predicate over the same rows.
* **join** — two-way hash join, 10^5 probe rows x 10^4 build rows
  (foreign-key shape, ~10^5 output rows).
* **scan-1M** — the 10^6-row scan: how the gap scales.

Nothing here asserts a ratio: the gated wall-clock numbers are the
``benchmarks/wall`` ledger's.  What *is* asserted is that the two engines
return the same answer, tuple for tuple, outside the timed region.
Timings are best-of-3 ``perf_counter``.  Each engine is timed producing
its *native* representation — the tuple operators build a ``Relation``
(hashed row set and all, as they always do mid-plan), the kernels build a
``ColumnarBatch`` (distinctness is preserved structurally; the next
kernel or the ResultStream consumes the batch as-is).
"""

from __future__ import annotations

import time

import pytest

from repro.caql.eval import result_schema
from repro.relational.columnar import (
    ColumnarBatch,
    hash_join_batch,
    reset_predicate_cache,
    select_batch,
)
from repro.relational.expressions import Col, Comparison, Lit
from repro.relational.operators import join, select
from repro.relational.relation import Relation

from benchmarks.harness import format_table, record

REPS = 3

SCAN_ROWS = 100_000
BUILD_ROWS = 10_000
BIG_SCAN_ROWS = 1_000_000

SCAN_PRED = [Comparison(Col("a0"), ">=", Lit(0))]
FILTER_PRED = [Comparison(Col("a2"), ">", Lit(95.0))]
JOIN_PAIRS = [("a1", "a0")]


def fact_relation(rows: int) -> Relation:
    schema = result_schema("r", 3)
    return Relation(schema, [(i, i % BUILD_ROWS, float(i % 97)) for i in range(rows)])


def dim_relation() -> Relation:
    schema = result_schema("s", 2)
    return Relation(schema, [(k, k * 2) for k in range(BUILD_ROWS)])


def best_of(thunk, reps: int = REPS) -> tuple[float, object]:
    """Smallest wall-clock time over ``reps`` runs, plus the last answer."""
    elapsed = []
    answer = None
    for _ in range(reps):
        start = time.perf_counter()
        answer = thunk()
        elapsed.append(time.perf_counter() - start)
    return min(elapsed), answer


def measure(name: str, rows_in: int, tuple_thunk, columnar_thunk) -> dict:
    """One workload: both engines, identical-answer check, tuples/sec."""
    reset_predicate_cache()
    tuple_seconds, tuple_answer = best_of(tuple_thunk)
    columnar_seconds, columnar_answer = best_of(columnar_thunk)
    assert columnar_answer == tuple_answer, f"{name}: answers diverge"
    return {
        "workload": name,
        "rows_in": rows_in,
        "rows_out": len(tuple_answer),
        "tuple_seconds": round(tuple_seconds, 6),
        "columnar_seconds": round(columnar_seconds, 6),
        "tuple_tps": round(rows_in / tuple_seconds),
        "columnar_tps": round(rows_in / columnar_seconds),
        "speedup": round(tuple_seconds / columnar_seconds, 2),
    }


@pytest.fixture(scope="module")
def results():
    fact = fact_relation(SCAN_ROWS)
    fact_batch = ColumnarBatch.from_relation(fact)
    dim = dim_relation()
    dim_batch = ColumnarBatch.from_relation(dim)
    big = fact_relation(BIG_SCAN_ROWS)
    big_batch = ColumnarBatch.from_relation(big)
    return {
        "scan": measure(
            "scan",
            SCAN_ROWS,
            lambda: select(fact, SCAN_PRED),
            lambda: select_batch(fact_batch, SCAN_PRED),
        ),
        "filter": measure(
            "filter",
            SCAN_ROWS,
            lambda: select(fact, FILTER_PRED),
            lambda: select_batch(fact_batch, FILTER_PRED),
        ),
        "join": measure(
            "join",
            SCAN_ROWS,
            lambda: join(fact, dim, JOIN_PAIRS, name="j"),
            lambda: hash_join_batch(
                fact_batch, dim_batch, JOIN_PAIRS, name="j"
            ),
        ),
        "scan-1M": measure(
            "scan-1M",
            BIG_SCAN_ROWS,
            lambda: select(big, SCAN_PRED),
            lambda: select_batch(big_batch, SCAN_PRED),
        ),
    }


def test_report(results):
    headers = [
        "workload",
        "rows in",
        "rows out",
        "tuple (s)",
        "columnar (s)",
        "tuple tps",
        "columnar tps",
        "speedup",
    ]
    rows = [
        [
            r["workload"],
            r["rows_in"],
            r["rows_out"],
            r["tuple_seconds"],
            r["columnar_seconds"],
            r["tuple_tps"],
            r["columnar_tps"],
            f"{r['speedup']}x",
        ]
        for r in results.values()
    ]
    record(
        "E18",
        "columnar batch kernels vs tuple-at-a-time operators (wall clock)",
        format_table(headers, rows),
        notes=(
            "Both engines share one compiled predicate; what columnar still "
            "buys is the batch layout.  Answers are identical (asserted "
            "tuple-for-tuple before any timing is reported); the ratios are "
            f"reported, not gated.  Wall clock, best of {REPS}; unlike "
            "E1-E17 these are NOT simulated seconds."
        ),
        data={"workloads": list(results.values())},
    )


def test_big_scan_reported(results):
    assert results["scan-1M"]["rows_out"] == BIG_SCAN_ROWS
