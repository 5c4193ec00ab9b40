"""Tests for the remote DBMS facade: cost accounting, streams, catalog."""

import pytest

from repro.common.clock import CostProfile, SimClock
from repro.common.errors import UnknownRelationError
from repro.common.metrics import (
    REMOTE_REQUESTS,
    REMOTE_SERVER_TUPLES,
    REMOTE_TUPLES,
    Metrics,
)
from repro.relational.relation import relation_from_columns
from repro.remote.server import RemoteDBMS
from repro.remote.sql import FetchTableQuery, SelectQuery, SqlCol, SqlCondition, SqlLit, TableRef


@pytest.fixture
def server():
    dbms = RemoteDBMS(clock=SimClock(), profile=CostProfile(), metrics=Metrics())
    dbms.load_table(
        relation_from_columns(
            "emp",
            id=[1, 2, 3, 4],
            name=["ann", "bob", "cat", "dan"],
            dept=["hw", "sw", "sw", "hw"],
        )
    )
    return dbms


SW_QUERY = SelectQuery(
    tables=(TableRef("emp", "e"),),
    select=(SqlCol("e", "id"), SqlCol("e", "name")),
    where=(SqlCondition(SqlCol("e", "dept"), "=", SqlLit("sw")),),
)


class TestCostAccounting:
    def test_execute_counts_one_request(self, server):
        server.execute(SW_QUERY)
        assert server.metrics.get(REMOTE_REQUESTS) == 1

    def test_execute_counts_shipped_tuples(self, server):
        server.execute(SW_QUERY)
        assert server.metrics.get(REMOTE_TUPLES) == 2

    def test_execute_counts_server_work(self, server):
        server.execute(SW_QUERY)
        assert server.metrics.get(REMOTE_SERVER_TUPLES) >= 4

    def test_clock_advances(self, server):
        before = server.clock.now
        server.execute(SW_QUERY)
        elapsed = server.clock.now - before
        expected_min = server.profile.remote_latency
        assert elapsed >= expected_min

    def test_two_requests_cost_two_latencies(self, server):
        server.execute(SW_QUERY)
        first = server.clock.now
        server.execute(SW_QUERY)
        assert server.clock.now - first >= server.profile.remote_latency

    def test_schema_lookup_charged(self, server):
        server.schema_of("emp")
        assert server.metrics.get(REMOTE_REQUESTS) == 1

    def test_statistics_lookup_charged(self, server):
        stats = server.statistics_of("emp")
        assert server.metrics.get(REMOTE_REQUESTS) == 1
        assert stats.cardinality == 4

    def test_load_table_not_charged(self, server):
        assert server.metrics.get(REMOTE_REQUESTS) == 0
        assert server.clock.now == 0.0


class TestCatalogAccess:
    def test_schema_of(self, server):
        assert server.schema_of("emp").attributes == ("id", "name", "dept")

    def test_unknown_schema(self, server):
        with pytest.raises(UnknownRelationError):
            server.schema_of("ghost")

    def test_has_table(self, server):
        assert server.has_table("emp")
        assert not server.has_table("ghost")


class TestStreams:
    def test_pipelined_stream_pays_per_buffer(self, server):
        stream = server.execute_stream(FetchTableQuery("emp"), buffer_size=2)
        shipped_before = server.metrics.get(REMOTE_TUPLES)
        assert shipped_before == 0  # nothing shipped until pulled
        first = stream.next_buffer()
        assert len(first) == 2
        assert server.metrics.get(REMOTE_TUPLES) == 2

    def test_stream_stops_early_saves_transfer(self, server):
        stream = server.execute_stream(FetchTableQuery("emp"), buffer_size=1)
        stream.next_buffer()
        # Abandon the stream after one row: only 1 tuple shipped.
        assert server.metrics.get(REMOTE_TUPLES) == 1

    def test_stream_exhaustion(self, server):
        stream = server.execute_stream(FetchTableQuery("emp"), buffer_size=3)
        buffers = [stream.next_buffer(), stream.next_buffer()]
        assert [len(b) for b in buffers] == [3, 1]
        assert stream.next_buffer() == []

    def test_non_pipelined_ships_everything_upfront(self):
        dbms = RemoteDBMS(supports_pipelining=False)
        dbms.load_table(relation_from_columns("t", a=[1, 2, 3]))
        dbms.execute_stream(FetchTableQuery("t"), buffer_size=1)
        assert dbms.metrics.get(REMOTE_TUPLES) == 3

    def test_streams_read_the_result_where_it_is(self, server, monkeypatch):
        # The engine's result is the stream's alone: buffers are cut from
        # it as they are pulled, it is never copied whole into the stream.
        from repro.relational.relation import Relation

        def no_copy(self):
            raise AssertionError("a stream copied its whole result")

        monkeypatch.setattr(Relation, "rows", property(no_copy))
        stream = server.execute_stream(SW_QUERY, buffer_size=1)
        (batch,) = server.execute_batch([SW_QUERY], buffer_size=8)
        assert stream.next_buffer() == [(2, "bob")]
        assert stream.next_buffer() == [(3, "cat")]
        assert batch.next_buffer() == [(2, "bob"), (3, "cat")]
        assert stream.next_buffer() == batch.next_buffer() == []

    def test_stream_schema(self, server):
        stream = server.execute_stream(FetchTableQuery("emp"))
        assert stream.schema.attributes == ("id", "name", "dept")


class TestParallelTrack:
    def test_remote_work_lands_on_remote_track(self, server):
        clock = server.clock
        with clock.parallel() as region:
            server.execute(SW_QUERY)
            assert "remote" in region.tracks
        assert clock.now > 0
