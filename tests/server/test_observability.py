"""Server-side observability: per-session trace scoping, high-water
gauges, admission rejection events, and trace determinism."""

import json

import pytest

from repro.advice.language import AdviceSet
from repro.advice.view_spec import annotate
from repro.caql.parser import parse_query
from repro.common.errors import ServerOverloadError
from repro.common.metrics import SERVER_QUEUE_DEPTH_HIGH_WATER
from repro.server import BraidServer, ServerConfig
from repro.workloads.synthetic import selection_universe

TABLES = selection_universe(rows=60, domain=100, seed=5).tables


def make_server(tracing: bool = True, **overrides) -> BraidServer:
    return BraidServer(
        tables=TABLES,
        config=ServerConfig(tracing=tracing, scheduler_seed=3, **overrides),
    )


def queries(count: int, tag: str = "q"):
    return [
        parse_query(f"{tag}{i}(I, V) :- item(I, cat0, V), V >= {i}")
        for i in range(count)
    ]


def run_workload(
    server: BraidServer, per_session: int = 3, lazy: bool = False
) -> None:
    """Two sessions' queries.  ``lazy``: their advice prefers lazy
    evaluation and alice warms the table first, so every answer is a
    stream derived from the cache."""
    streams = {
        "alice": queries(per_session, tag="qa"),
        "bob": queries(per_session, tag="qb"),
    }
    for name, stream in streams.items():
        advice = (
            AdviceSet.from_views([annotate(q, "^^") for q in stream]) if lazy else None
        )
        server.open_session(name, advice=advice)
    if lazy:
        server.submit("alice", parse_query("warm(I, C, V) :- item(I, C, V)"))
        server.run_until_idle()
    for name, stream in streams.items():
        for query in stream:
            server.submit(name, query)
    server.run_until_idle()


def spans_of(server: BraidServer) -> list[dict]:
    return [
        json.loads(line)
        for line in server.trace_jsonl().splitlines()
        if "\"span\"" in line
    ]


class TestSessionScoping:
    def test_server_steps_carry_session_and_request(self):
        # A lazy stream is drained in its execute step too: one step per
        # request either way.
        for lazy in (False, True):
            server = make_server()
            run_workload(server, lazy=lazy)
            steps = [s for s in spans_of(server) if s["name"] == "server.step"]
            assert steps
            assert {s["attributes"]["session"] for s in steps} == {"alice", "bob"}
            requests = [s["attributes"]["request"] for s in steps]
            assert all(requests) and len(requests) == len(set(requests))
            for step in steps:
                assert "phase" not in step["attributes"]
                assert "eligible" in step["attributes"]

    def test_step_spans_mirror_the_schedule_trace(self):
        server = make_server()
        run_workload(server)
        steps = [s for s in spans_of(server) if s["name"] == "server.step"]
        records = server.schedule_trace
        assert len(steps) == len(records)
        for step, record in zip(steps, records):
            assert step["attributes"]["index"] == record.index
            assert step["attributes"]["session"] == record.session
            assert step["attributes"]["request"] == record.request_id

    def test_query_spans_nest_under_steps_with_session_attr(self):
        server = make_server()
        run_workload(server)
        spans = spans_of(server)
        by_id = {s["span"]: s for s in spans}
        cms_queries = [s for s in spans if s["name"] == "cms.query"]
        assert cms_queries
        for span in cms_queries:
            parent = by_id[span["parent"]]
            assert parent["name"] == "server.step"
            assert span["attributes"]["session"] == parent["attributes"]["session"]


class TestGauges:
    def test_queue_depth_high_water(self):
        server = make_server(tracing=False)
        server.open_session("alice")
        for query in queries(4):
            server.submit("alice", query)
        assert server.metrics.get(SERVER_QUEUE_DEPTH_HIGH_WATER) == 4
        server.run_until_idle()
        # Draining never lowers a high-water mark.
        assert server.metrics.get(SERVER_QUEUE_DEPTH_HIGH_WATER) == 4


class TestAdmissionEvents:
    def test_rejection_emits_a_trace_event(self):
        server = make_server(max_queue_depth=2)
        server.open_session("alice")
        for query in queries(2):
            server.submit("alice", query)
        with pytest.raises(ServerOverloadError):
            server.submit("alice", queries(3)[2])
        rejected = [
            json.loads(line)
            for line in server.trace_jsonl().splitlines()
            if '"event":"server.rejected"' in line
        ]
        assert len(rejected) == 1
        attributes = rejected[0]["attributes"]
        assert attributes["session"] == "alice"
        assert attributes["queue_depth"] == 2
        assert attributes["max_queue_depth"] == 2


class TestDeterminism:
    def test_same_seed_traces_are_byte_identical(self):
        def run():
            server = make_server()
            run_workload(server)
            return server.trace_jsonl(), server.trace_fingerprint()

        first, second = run(), run()
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[0]  # non-empty: the trace actually recorded spans

    def test_tracing_does_not_perturb_the_run(self):
        def run(tracing: bool):
            server = make_server(tracing=tracing)
            run_workload(server)
            return (
                server.clock.now,
                server.metrics.snapshot(),
                server.schedule_fingerprint(),
                server.session_results_snapshot(),
            )

        assert run(tracing=True) == run(tracing=False)

    def test_untraced_server_exports_nothing(self):
        server = make_server(tracing=False)
        run_workload(server)
        assert server.trace_jsonl() == ""
