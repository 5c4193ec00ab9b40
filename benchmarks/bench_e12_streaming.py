"""E12 — streams, buffering, and pipelining (Section 5.5).

"Stream processing buffers the results produced by the DBMS and passes
results, one at a time, as they are requested ... The interface also
allows pipelining if the DBMS supports it."  With pipelining, transfer is
paid per shipped buffer; without it, the whole result crosses the wire
up front.

Workload: a large remote result consumed only partially through the
server's buffered stream interface.  Sweep the consumed fraction and
compare pipelining on/off.

Expected shape: without pipelining, shipped tuples equal the result size
regardless of consumption; with pipelining they track consumption (rounded
up to buffer size).
"""

from __future__ import annotations

import pytest

from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.remote.server import RemoteDBMS
from repro.remote.sql import FetchTableQuery

from benchmarks.harness import format_table, record

RESULT_SIZE = 2000
BUFFER = 32
CONSUMED = [32, 256, 1024, 2000]


def make_server(pipelining: bool) -> RemoteDBMS:
    server = RemoteDBMS(supports_pipelining=pipelining)
    rows = [(i, i % 97) for i in range(RESULT_SIZE)]
    server.load_table(Relation(Schema("big", ("a", "b")), rows))
    return server


def run_consumption(pipelining: bool, consume: int) -> dict:
    server = make_server(pipelining)
    stream = server.execute_stream(FetchTableQuery("big"), buffer_size=BUFFER)
    pulled = 0
    while pulled < consume:
        buffer = stream.next_buffer()
        if not buffer:
            break
        pulled += len(buffer)
    return {
        "pulled": pulled,
        "shipped": server.metrics.get("remote.tuples_shipped"),
        "time": server.clock.now,
    }


@pytest.fixture(scope="module")
def results():
    out = {}
    for consume in CONSUMED:
        out[(True, consume)] = run_consumption(True, consume)
        out[(False, consume)] = run_consumption(False, consume)
    return out


def test_report(results):
    rows = []
    for consume in CONSUMED:
        for pipelining in (True, False):
            r = results[(pipelining, consume)]
            rows.append(
                [
                    consume,
                    "pipelined" if pipelining else "whole-result",
                    r["pulled"],
                    r["shipped"],
                    r["time"],
                ]
            )
    headers = ["consumed", "transfer", "pulled", "tuples shipped", "sim time (s)"]
    record(
        "E12",
        f"partial consumption of a {RESULT_SIZE}-tuple remote result (buffer {BUFFER})",
        format_table(headers, rows),
        notes="Claim: pipelined transfer pays only for shipped buffers.",
        data={"headers": headers, "rows": rows},
    )


@pytest.mark.parametrize("consume", CONSUMED[:-1])
def test_pipelining_ships_less_when_consumption_partial(results, consume):
    assert (
        results[(True, consume)]["shipped"] < results[(False, consume)]["shipped"]
    )


def test_pipelined_shipping_tracks_consumption(results):
    for consume in CONSUMED:
        shipped = results[(True, consume)]["shipped"]
        assert consume <= shipped <= consume + BUFFER


def test_whole_result_always_full_price(results):
    for consume in CONSUMED:
        assert results[(False, consume)]["shipped"] == RESULT_SIZE


def test_full_consumption_costs_match(results):
    full = CONSUMED[-1]
    assert results[(True, full)]["shipped"] == results[(False, full)]["shipped"]
