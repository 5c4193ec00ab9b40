"""Shared multi-query optimization: registry unit tests plus the
end-to-end contract that sharing in-flight subplans is invisible in
every answer."""

import pytest

from repro.common.errors import InvariantViolation
from repro.common.metrics import SERVER_SHARED_SUBPLANS
from repro.relational.relation import Relation
from repro.caql.parser import parse_query
from repro.caql.eval import psj_of, result_schema
from repro.core.cms import CMSFeatures
from repro.server import BraidServer, ServerConfig
from repro.server import mqo
from repro.server.mqo import SharedSubplanRegistry
from repro.workloads.multisession import (
    MultiSessionSpec,
    client_streams,
    submit_interleaved,
)
from repro.workloads.synthetic import retail_universe


def make_psj(text):
    return psj_of(parse_query(text))


def make_relation(name, n, width=2):
    schema = result_schema(name, width)
    return Relation(
        schema, [tuple(f"{name}{i}_{j}" for j in range(width)) for i in range(n)]
    )


class TestSharedSubplanRegistry:
    def test_publish_then_lookup(self):
        registry = SharedSubplanRegistry()
        psj = make_psj("v1(X, Y) :- b1(X, Y), X >= 3")
        relation = make_relation("v1", 4)
        registry.publish(psj, relation)
        # A structurally identical definition hits even under renaming.
        twin = make_psj("other(A, B) :- b1(A, B), A >= 3")
        assert registry.lookup(twin) is relation
        assert registry.publications == 1
        assert registry.hits == 1
        registry.check_invariants()

    def test_miss_on_different_definition(self):
        registry = SharedSubplanRegistry()
        registry.publish(make_psj("v1(X, Y) :- b1(X, Y), X >= 3"), make_relation("v1", 4))
        assert registry.lookup(make_psj("v2(X, Y) :- b1(X, Y), X >= 4")) is None
        assert registry.hits == 0

    def test_fifo_bound_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(mqo, "MAX_ENTRIES", 2)
        registry = SharedSubplanRegistry()
        queries = [make_psj(f"v{i}(X, Y) :- b{i}(X, Y)") for i in range(3)]
        for index, psj in enumerate(queries):
            registry.publish(psj, make_relation(f"v{index}", 2))
        assert len(registry) == 2
        assert registry.lookup(queries[0]) is None  # oldest dropped
        assert registry.lookup(queries[1]) is not None
        assert registry.lookup(queries[2]) is not None
        registry.check_invariants()

    def test_republish_refreshes_without_consuming_capacity(self, monkeypatch):
        monkeypatch.setattr(mqo, "MAX_ENTRIES", 2)
        registry = SharedSubplanRegistry()
        psj = make_psj("v1(X, Y) :- b1(X, Y)")
        registry.publish(psj, make_relation("v1", 2))
        replacement = make_relation("v1", 3)
        registry.publish(psj, replacement)
        assert len(registry) == 1
        assert registry.lookup(psj) is replacement
        assert registry.publications == 2

    def test_clear_drops_everything(self):
        registry = SharedSubplanRegistry()
        psj = make_psj("v1(X, Y) :- b1(X, Y)")
        registry.publish(psj, make_relation("v1", 2))
        registry.clear()
        assert len(registry) == 0
        assert registry.lookup(psj) is None

    def test_invariants_catch_corruption(self, monkeypatch):
        monkeypatch.setattr(mqo, "MAX_ENTRIES", 1)
        registry = SharedSubplanRegistry()
        registry.publish(make_psj("v1(X, Y) :- b1(X, Y)"), make_relation("v1", 2))
        registry._entries["bogus"] = "not a relation"
        with pytest.raises(InvariantViolation):
            registry.check_invariants()


# -- end-to-end: the E21 churn regime, shrunk to a test ----------------------------

TABLES = retail_universe(rows=300, orders=600, domain=1000, seed=5).tables
SPEC = MultiSessionSpec(
    clients=6,
    requests_per_client=16,
    shared_fraction=0.7,
    hot_pool_size=9,
    private_pool_size=10,
    seed=21,
    join_fraction=0.667,
    zipf_skew=1.0,
)
CHURN_BYTES = 3_000


def run_server(mqo: bool, serial: bool = False):
    server = BraidServer(
        tables=TABLES,
        config=ServerConfig(
            cache_capacity_bytes=CHURN_BYTES,
            features=CMSFeatures(intermediates=True, mqo=mqo),
            max_queue_depth=SPEC.clients * SPEC.requests_per_client + 16,
            scheduler_seed=21,
        ),
    )
    streams = client_streams(SPEC)
    for name in streams:
        server.open_session(name)
    if serial:
        for name, stream in streams.items():
            for query in stream:
                server.submit(name, query)
            server.run_until_idle()
    else:
        submit_interleaved(server, streams)
        server.run_until_idle()
    snapshot = server.session_results_snapshot()
    answers = {
        name: sorted(
            (request_id, query_name, rows)
            for request_id, query_name, _lat, _deg, _err, rows in results
        )
        for name, results in snapshot.items()
    }
    return server, answers


class TestMQOEndToEnd:
    @pytest.fixture(scope="class")
    def with_mqo(self):
        return run_server(mqo=True)

    @pytest.fixture(scope="class")
    def without_mqo(self):
        return run_server(mqo=False)

    @pytest.fixture(scope="class")
    def serial_mqo(self):
        return run_server(mqo=True, serial=True)

    def test_subplans_shared_under_churn(self, with_mqo, without_mqo):
        server, _ = with_mqo
        baseline, _ = without_mqo
        assert server.metrics.get(SERVER_SHARED_SUBPLANS) > 0
        assert baseline.metrics.get(SERVER_SHARED_SUBPLANS) == 0

    def test_disabled_server_has_no_registry(self, without_mqo):
        server, _ = without_mqo
        assert server.subplan_registry is None

    def test_registry_cleared_at_idle(self, with_mqo):
        """The registry is a per-burst structure: going idle empties it,
        so stale rows can never leak into the next burst."""
        server, _ = with_mqo
        assert len(server.subplan_registry) == 0
        server.subplan_registry.check_invariants()

    def test_sharing_never_changes_answers(self, with_mqo, without_mqo):
        _, shared = with_mqo
        _, unshared = without_mqo
        assert shared == unshared

    def test_concurrent_answers_match_serial(self, with_mqo, serial_mqo):
        """The MQO correctness contract: a session's rows are exactly what
        it would have received running alone, one client at a time."""
        _, concurrent = with_mqo
        _, serial = serial_mqo
        assert concurrent == serial
