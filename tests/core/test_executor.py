"""Unit tests for the Execution Monitor and result streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import ParallelRegion
from repro.common.errors import PlanningError
from repro.common.metrics import CACHE_TUPLES_PROCESSED
from repro.relational.generator import generator_from_rows
from repro.relational.relation import Relation, relation_from_columns
from repro.remote.server import RemoteDBMS
from repro.caql.eval import evaluate_psj, psj_of, result_schema
from repro.caql.parser import parse_query
from repro.caql.psj import psj_from_literals
from repro.core.cache import Cache
from repro.core.executor import ExecutionMonitor, ResultStream
from repro.core.plan import QueryPlan
from repro.core.planner import QueryPlanner
from repro.core.advice_manager import AdviceManager
from repro.core.rdi import RemoteInterface


def make_psj(text):
    return psj_of(parse_query(text))


B2 = Relation(result_schema("b2", 2), [(x, z) for x in range(4) for z in range(4)])
B3 = Relation(
    result_schema("b3", 3),
    [(z, c, y) for z in range(4) for c in ("c2", "c3") for y in range(3)],
)


def make_monitor(cache=None):
    server = RemoteDBMS()
    server.load_table(B2)
    server.load_table(B3)
    cache = cache if cache is not None else Cache()
    monitor = ExecutionMonitor(
        cache,
        RemoteInterface(server),
        server.clock,
        server.profile,
        server.metrics,
    )
    return monitor, cache, server


def make_planner(cache, server):
    manager = AdviceManager()
    manager.begin_session(None)
    rdi = RemoteInterface(server)
    return QueryPlanner(
        cache, manager, rdi.statistics_of, rdi.cost_profile_of, server.profile
    )


class TestDegenerateStrategies:
    def test_unsatisfiable_plan_empty(self):
        monitor, _cache, _server = make_monitor()
        psj = make_psj("q(X) :- b2(X, Z), 1 > 2")
        result = monitor.execute(QueryPlan(psj, "unsatisfiable"))
        assert len(result) == 0

    def test_unit_plan(self):
        monitor, _cache, _server = make_monitor()
        psj = psj_from_literals("q", [], [], ())
        result = monitor.execute(QueryPlan(psj, "unit"))
        assert result.rows == [(True,)]

    def test_unknown_strategy_rejected(self):
        monitor, _cache, _server = make_monitor()
        psj = make_psj("q(X, Z) :- b2(X, Z)")
        with pytest.raises(PlanningError):
            monitor.execute(QueryPlan(psj, "teleport"))

    def test_exact_plan_with_vanished_element(self):
        # The executor has no exact route: the CMS reads an exact hit
        # itself, so a plan naming the strategy is an unknown one.
        monitor, _cache, _server = make_monitor()
        psj = make_psj("q(X, Z) :- b2(X, Z)")
        with pytest.raises(PlanningError, match="unknown plan strategy"):
            monitor.execute(QueryPlan(psj, "exact"))

    def test_cache_full_plan_without_match(self):
        monitor, _cache, _server = make_monitor()
        psj = make_psj("q(X, Z) :- b2(X, Z)")
        with pytest.raises(PlanningError):
            monitor.execute(QueryPlan(psj, "cache-full"))


class TestPlansEndToEnd:
    def run_plan(self, query_text, warm_texts=()):
        monitor, cache, server = make_monitor()
        lookup = {"b2": B2, "b3": B3}.__getitem__
        for text in warm_texts:
            psj = make_psj(text)
            cache.store(psj, evaluate_psj(psj, lookup))
        planner = make_planner(cache, server)
        psj = make_psj(query_text)
        plan = planner.plan(psj)
        result = monitor.execute(psj and plan)
        expected = evaluate_psj(psj, lookup)
        return plan, result, expected, monitor

    def test_remote_plan_matches_direct_eval(self):
        plan, result, expected, _ = self.run_plan("q(X, Z) :- b2(X, Z), X < 2")
        assert plan.strategy == "remote"
        assert result == expected

    def test_cache_full_plan_matches(self):
        plan, result, expected, _ = self.run_plan(
            "q(Z) :- b2(2, Z)", warm_texts=["scan(X, Z) :- b2(X, Z)"]
        )
        assert plan.strategy == "cache-full"
        assert result == expected

    def test_hybrid_plan_matches(self):
        plan, result, expected, _ = self.run_plan(
            "q(Z) :- b2(2, Z), b3(Z, c2, 1)",
            warm_texts=["e12(X, Y) :- b3(X, c2, Y)"],
        )
        assert plan.strategy == "hybrid"
        assert result == expected

    def test_hybrid_charges_local_work(self):
        _plan, _result, _expected, monitor = self.run_plan(
            "q(Z) :- b2(2, Z), b3(Z, c2, 1)",
            warm_texts=["e12(X, Y) :- b3(X, c2, Y)"],
        )
        assert monitor.metrics.get(CACHE_TUPLES_PROCESSED) > 0

    def test_parallel_overlap_in_hybrid(self):
        monitor, cache, server = make_monitor()
        lookup = {"b2": B2, "b3": B3}.__getitem__
        psj_e = make_psj("e12(X, Y) :- b3(X, c2, Y)")
        cache.store(psj_e, evaluate_psj(psj_e, lookup))
        planner = make_planner(cache, server)
        psj = make_psj("q(Z) :- b2(2, Z), b3(Z, c2, 1)")
        plan = planner.plan(psj)
        assert plan.strategy == "hybrid"
        monitor.execute(plan)  # warm the RDI's schema cache (one-time cost)

        monitor.parallel = True
        before = server.clock.now
        monitor.execute(plan)
        parallel_time = server.clock.now - before

        monitor.parallel = False
        before = server.clock.now
        monitor.execute(plan)
        sequential_time = server.clock.now - before
        assert parallel_time <= sequential_time


class TestResultStream:
    def test_next_and_exhaustion(self):
        relation = relation_from_columns("r", a=[1, 2])
        stream = ResultStream(relation, "r")
        assert stream.next() == (1,)
        assert stream.next() == (2,)
        assert stream.next() is None

    def test_iteration(self):
        relation = relation_from_columns("r", a=[1, 2, 3])
        assert len(list(ResultStream(relation, "r"))) == 3

    def test_fetch_all_on_generator(self):
        gen = generator_from_rows(result_schema("g", 1), [(1,), (2,)])
        stream = ResultStream(gen, "g")
        assert stream.lazy
        assert stream.fetch_all() == [(1,), (2,)]

    def test_as_relation_materializes(self):
        gen = generator_from_rows(result_schema("g", 1), [(9,)])
        relation = ResultStream(gen, "g").as_relation()
        assert isinstance(relation, Relation)
        assert relation.rows == [(9,)]

    def test_degraded_flag_defaults_false(self):
        relation = relation_from_columns("r", a=[1])
        assert not ResultStream(relation, "r").degraded
        assert ResultStream(relation, "r", degraded=True).degraded


class TestResultStreamEdgeCases:
    """Exhaustion, mixed consumption, and exactly-once lazy production."""

    def make_lazy(self, rows):
        gen = generator_from_rows(result_schema("g", 1), rows)
        produced = []
        gen.on_produce = produced.append
        return ResultStream(gen, "g"), produced

    def test_next_after_exhaustion_on_lazy_stays_none(self):
        stream, _produced = self.make_lazy([(1,), (2,)])
        assert stream.next() == (1,)
        assert stream.next() == (2,)
        assert stream.next() is None
        assert stream.next() is None  # stays exhausted, no restart

    def test_fetch_all_after_partial_next_is_complete(self):
        stream, produced = self.make_lazy([(1,), (2,), (3,)])
        assert stream.next() == (1,)
        assert stream.fetch_all() == [(1,), (2,), (3,)]
        # Each tuple was produced (and would be charged) exactly once:
        # the memoized prefix served the re-read of row 1.
        assert produced == [(1,), (2,), (3,)]

    def test_double_iteration_produces_each_tuple_once(self):
        stream, produced = self.make_lazy([(1,), (2,)])
        assert list(stream) == [(1,), (2,)]
        assert list(stream) == [(1,), (2,)]
        assert produced == [(1,), (2,)]

    def test_next_after_fetch_all_continues_from_memo(self):
        stream, produced = self.make_lazy([(1,), (2,)])
        assert stream.fetch_all() == [(1,), (2,)]
        assert stream.next() == (1,)  # fresh cursor over the memoized rows
        assert produced == [(1,), (2,)]

    def test_duplicate_rows_deduplicated_and_charged_once(self):
        stream, produced = self.make_lazy([(1,), (1,), (2,)])
        assert stream.fetch_all() == [(1,), (2,)]
        assert produced == [(1,), (2,)]

    def test_eager_stream_unaffected_by_mixed_consumption(self):
        relation = relation_from_columns("r", a=[1, 2, 3])
        stream = ResultStream(relation, "r")
        assert stream.next() == (1,)
        assert stream.fetch_all() == [(1,), (2,), (3,)]
        assert stream.next() == (2,)  # next() keeps its own cursor


class SpyRegion:
    """A ParallelRegion that reports its per-track totals on exit."""

    def __init__(self, clock, sink):
        self._region = ParallelRegion(clock)
        self._sink = sink

    def __enter__(self):
        return self._region.__enter__()

    def __exit__(self, *exc):
        self._sink.append(self._region.tracks)
        return self._region.__exit__(*exc)


def spy_on_parallel(clock):
    """Capture the track totals of every parallel region ``clock`` opens."""
    captured = []

    def parallel():
        return SpyRegion(clock, captured)

    clock.parallel = parallel
    return captured


class TestParallelEquivalence:
    """Property: parallel execution changes timing, never answers.

    Section 5.3.3 — remote and cache subqueries overlap, so a parallel
    region advances the clock by max(local, remote) while producing the
    same rows the sequential schedule would.
    """

    QUERY = "q(Z) :- b2(2, Z), b3(Z, c2, 1)"
    WARM = "e12(X, Y) :- b3(X, c2, Y)"

    def run_once(self, b2_rows, b3_rows, parallel):
        server = RemoteDBMS()
        b2 = Relation(result_schema("b2", 2), b2_rows)
        b3 = Relation(result_schema("b3", 3), b3_rows)
        server.load_table(b2)
        server.load_table(b3)
        cache = Cache()
        lookup = {"b2": b2, "b3": b3}.__getitem__
        warm = make_psj(self.WARM)
        cache.store(warm, evaluate_psj(warm, lookup))
        monitor = ExecutionMonitor(
            cache,
            RemoteInterface(server),
            server.clock,
            server.profile,
            server.metrics,
            parallel=parallel,
        )
        planner = make_planner(cache, server)
        psj = make_psj(self.QUERY)
        plan = planner.plan(psj)
        regions = spy_on_parallel(server.clock)
        before = server.clock.now
        result = monitor.execute(plan)
        elapsed = server.clock.now - before
        expected = evaluate_psj(psj, lookup)
        return result, expected, elapsed, regions, plan

    @given(
        b2_rows=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=24
        ),
        b3_rows=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from(["c2", "c3"]),
                st.integers(0, 2),
            ),
            max_size=24,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_parallel_and_sequential_agree(self, b2_rows, b3_rows):
        par, expected, par_elapsed, regions, plan = self.run_once(
            b2_rows, b3_rows, parallel=True
        )
        seq, _expected, seq_elapsed, seq_regions, _ = self.run_once(
            b2_rows, b3_rows, parallel=False
        )
        # Same answer multiset, and both match direct evaluation.
        assert sorted(par.rows) == sorted(seq.rows) == sorted(expected.rows)
        # Parallel never takes longer than sequential.
        assert par_elapsed <= seq_elapsed + 1e-12
        assert not seq_regions  # sequential run opens no parallel region
        if regions:
            # The region advanced the clock by exactly max(local, remote);
            # work outside the region (combine/metrics) is sequential.
            overlap = sum(max(tracks.values()) for tracks in regions)
            saved = sum(sum(tracks.values()) for tracks in regions) - overlap
            assert seq_elapsed - par_elapsed == pytest.approx(saved)

    def test_hybrid_parallel_elapsed_is_max_of_tracks(self):
        b2_rows = [(x, z) for x in range(4) for z in range(4)]
        b3_rows = [
            (z, c, y) for z in range(4) for c in ("c2", "c3") for y in range(3)
        ]
        result, expected, elapsed, regions, plan = self.run_once(
            b2_rows, b3_rows, parallel=True
        )
        assert plan.strategy == "hybrid"
        assert sorted(result.rows) == sorted(expected.rows)
        assert len(regions) == 1
        tracks = regions[0]
        assert set(tracks) == {"local", "remote"}
        assert max(tracks.values()) <= elapsed
        # Everything charged outside the region is sequential tail work.
        assert elapsed >= max(tracks.values())
