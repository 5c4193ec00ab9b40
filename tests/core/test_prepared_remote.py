"""Prepared remote requests: a miss is translated once per shape, priced
only when read, and its shipped rows are hashed once.

* **Templates.** Each link (``RemoteInterface``) builds a request shape's
  ``SQLTemplate`` once; every ask of the shape binds its literals and
  IN-list values into it, and the bound translation is the one
  ``sql_from_psj`` gives from scratch.
* **Deferred estimates.** A plan with no cache part has nothing to weigh
  its fetch against: its remote estimate is computed when read, and reads
  what pricing it at plan time gave.  Its statistics are still looked up
  at plan time.
* **Adoption.** A projection that keeps every column of a distinct input
  is not deduplicated, so the rows the remote returned reach the answer
  without being hashed again.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.rdi as rdi_module
import repro.relational.expressions as expressions
import repro.relational.operators as operators
from repro.caql.eval import psj_of
from repro.caql.parser import parse_query
from repro.caql.psj import psj_from_literals
from repro.caql.translate import sql_from_psj
from repro.common.metrics import REMOTE_REQUESTS
from repro.core.cms import CacheManagementSystem
from repro.core.plan import RemotePart
from repro.core.planner import QueryPlanner
from repro.core.rdi import RemoteInterface, canonical_bindings
from repro.logic.terms import Atom, Const, Var
from repro.relational.relation import Relation, relation_from_columns
from repro.relational.schema import Schema
from repro.remote.server import RemoteDBMS
from tests.core.test_planner import cache_with, make_planner


def make_server():
    server = RemoteDBMS()
    server.load_table(
        relation_from_columns(
            "emp", id=[1, 2, 3, 4], dept=["a", "b", "a", "c"], pay=[10, 20, 30, 40]
        )
    )
    server.load_table(relation_from_columns("dept", name=["a", "b", "c"], floor=[1, 2, 2]))
    return server


def make_psj(text):
    return psj_of(parse_query(text))


def count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestTemplates:
    def test_a_second_miss_of_one_shape_builds_no_translation(self, monkeypatch):
        rdi = RemoteInterface(make_server())
        built = count_calls(monkeypatch, rdi_module, "SQLTemplate")
        first = rdi.fetch(make_psj("q(I) :- emp(I, a, P), P > 15"))
        second = rdi.fetch(make_psj("q(I) :- emp(I, b, P), P > 5"))
        assert len(built) == 1
        assert sorted(first) == [(3,)] and sorted(second) == [(2,)]

    def test_templates_are_per_link(self, monkeypatch):
        server = make_server()
        one, two = RemoteInterface(server), RemoteInterface(server)
        built = count_calls(monkeypatch, rdi_module, "SQLTemplate")
        for n, link in enumerate((one, two, one, two)):
            link.fetch(make_psj(f"q(I) :- emp(I, D, P), P > {n}"))
        assert len(built) == 2
        # The second link looked the schema up itself: a charged round trip.
        assert two._schema_cache.keys() == {"emp"}

    def test_in_list_values_are_the_asks_own(self, monkeypatch):
        rdi = RemoteInterface(make_server())
        built = count_calls(monkeypatch, rdi_module, "SQLTemplate")
        psj = make_psj("q(I, D) :- emp(I, D, P)")
        assert sorted(rdi.fetch(psj, {"t0.c1": ("a",)})) == [(1, "a"), (3, "a")]
        assert sorted(rdi.fetch(psj, {"t0.c1": ("b", "c")})) == [(2, "b"), (4, "c")]
        # Another IN-list column is another shape.
        assert sorted(rdi.fetch(psj, {"t0.c0": (4,)})) == [(4, "c")]
        assert len(built) == 2

    def test_pinned_answers_are_the_asks_own(self):
        rdi = RemoteInterface(make_server())
        for dept in ("a", "b"):
            relation = rdi.fetch(make_psj(f"q(I, {dept}) :- emp(I, {dept}, P)"))
            assert {row[1] for row in relation} == {dept}

    def test_the_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(expressions, "SHAPE_BOUND", 2)
        rdi = RemoteInterface(make_server())
        for op in ("<", ">", "=<"):
            rdi.fetch(make_psj(f"q(I) :- emp(I, D, P), P {op} 20"))
        assert len(rdi._templates) == 2

    def test_the_audit_compares_with_a_fresh_translation(self, monkeypatch):
        server = make_server()
        rdi = RemoteInterface(server)
        rdi.check_invariants()  # nothing bound yet
        rdi.fetch(make_psj("q(I) :- emp(I, a, P)"))
        rdi.fetch(make_psj("q(I) :- emp(I, b, P)"))
        built = count_calls(monkeypatch, rdi_module, "sql_from_psj")
        charged = (server.metrics.get(REMOTE_REQUESTS), server.clock.now)
        rdi.check_invariants()
        assert len(built) == 1  # the last ask's, from scratch
        assert (server.metrics.get(REMOTE_REQUESTS), server.clock.now) == charged

    LITERALS = st.sampled_from([0, 1, 1.0, True, 2.5, "a", "1", None])

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(LITERALS, LITERALS, st.lists(LITERALS, min_size=1, max_size=4)),
            min_size=1,
            max_size=4,
        )
    )
    def test_a_bound_translation_is_the_from_scratch_one(self, asks):
        rdi = RemoteInterface(make_server())
        for pay, dept, values in asks:
            i, d, p = Var("I"), Var("D"), Var("P")
            psj = psj_from_literals(
                "q",
                [Atom("emp", (i, d, p))],
                [Atom(">", (p, Const(pay))), Atom("=", (d, Const(dept)))],
                (i, Const(dept)),
            )
            in_lists = canonical_bindings({"t0.c0": tuple(values)})
            bound = rdi._translate(psj, in_lists)
            fresh = sql_from_psj(psj, rdi.schema_of, in_lists=in_lists)
            assert repr(bound) == repr(fresh)


class TestDeferredEstimates:
    def test_an_untraced_remote_only_plan_is_not_priced(self, monkeypatch):
        cms = CacheManagementSystem(make_server())
        cms.begin_session()
        priced = count_calls(monkeypatch, QueryPlanner, "estimate_rows")
        query = make_psj("q(I, F) :- emp(I, D, P), dept(D, F), P > 15")
        plan = cms.planner.plan(query)
        assert plan.strategy == "remote" and priced == []
        sub = plan.parts[0].sub_query
        assert plan.estimated_remote_cost == cms.planner._remote_cost(sub)
        assert len(priced) == 2  # read once, then the reference

    def test_a_hybrid_plan_is_priced_at_plan_time(self):
        # Its price was weighed against the whole-query fetch: it is a value.
        planner = make_planner(cache_with("v(X, Y) :- b2(X, Y)"))
        plan = planner.plan(make_psj("q(X, C) :- b2(X, Y), b3(Y, C, 2)"))
        assert plan.strategy == "hybrid"
        (remote,) = [p for p in plan.parts if isinstance(p, RemotePart)]
        assert type(plan.remote_estimate) is float
        assert plan.estimated_remote_cost == planner._remote_cost(remote.sub_query) > 0

    def test_statistics_are_fetched_at_plan_time(self):
        server = make_server()
        cms = CacheManagementSystem(server)
        cms.begin_session()
        cms.planner.plan(make_psj("q(I, F) :- emp(I, D, P), dept(D, F)"))
        requests = server.metrics.get(REMOTE_REQUESTS)
        assert requests == 2  # one statistics round trip per relation
        now = server.clock.now
        cms.planner.plan(make_psj("q(I, F) :- emp(I, D, P), dept(D, F)")).estimated_remote_cost
        assert (server.metrics.get(REMOTE_REQUESTS), server.clock.now) == (requests, now)


class TestAdoption:
    @staticmethod
    def count_dedupes(monkeypatch, server):
        """Dedupe passes (``distinct_rows`` and ``Relation(...)``) after
        the engine's result is in hand."""
        passes = []
        shipped = []
        real_execute = server.engine.execute

        def execute(request):
            result = real_execute(request)
            shipped.append(result.relation)
            return result

        monkeypatch.setattr(server.engine, "execute", execute)
        real_distinct = operators.distinct_rows
        real_init = Relation.__init__

        def distinct_rows(rows):
            if shipped:
                passes.append("distinct_rows")
            return real_distinct(rows)

        def init(self, schema, rows=()):
            if shipped:
                passes.append("Relation")
            real_init(self, schema, rows)

        monkeypatch.setattr(operators, "distinct_rows", distinct_rows)
        monkeypatch.setattr(Relation, "__init__", init)
        return passes, shipped

    def test_a_whole_ship_miss_hashes_the_shipped_rows_no_more(self, monkeypatch):
        server = make_server()
        cms = CacheManagementSystem(server)
        cms.begin_session()
        text = "q(D, I, D) :- emp(I, D, P), P > 15"
        assert cms.planner.plan(make_psj(text)).strategy == "remote"
        passes, shipped = self.count_dedupes(monkeypatch, server)
        answer = cms.query(parse_query(text)).fetch_all()
        assert len(shipped) == 1 and passes == []
        # SELECT lists D, then I: the answer is each shipped row, D repeated.
        assert answer == [(d, i, d) for d, i in shipped[0]]

    def test_a_projection_that_drops_a_column_still_dedupes(self):
        relation = Relation(Schema("r", ("a", "b")), [(1, 2), (1, 3)])
        out = operators.project_entries(relation, [("col", 0)], Schema("p", ("a",)))
        assert out.rows == [(1,)]

    def test_a_list_is_deduplicated_even_when_every_column_is_kept(self):
        out = operators.project_entries(
            [(1, 2), (1, 2)], [("col", 0), ("col", 1)], Schema("p", ("a", "b"))
        )
        assert out.rows == [(1, 2)]

    VALUES = st.sampled_from([0, 1, 1.0, True, False, "1", None, math.nan])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(VALUES, VALUES), max_size=8),
        st.lists(
            st.one_of(
                st.tuples(st.just("col"), st.integers(0, 1)),
                st.tuples(st.just("const"), VALUES),
            ),
            max_size=4,
        ),
    )
    def test_adoption_is_the_dedupe_it_skips(self, rows, entries):
        relation = Relation(Schema("r", ("a", "b")), rows)
        schema = Schema("p", tuple(f"x{i}" for i in range(len(entries)))) if entries else Schema("p", ("e",))
        adopted = operators.project_entries(relation, entries, schema)
        adopted.check_invariants()
        reference = operators.project_entries(list(relation), entries, schema)
        assert adopted.rows == reference.rows
