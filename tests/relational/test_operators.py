"""Tests for relational algebra operators (eager and pipelined)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import EvaluationError
from repro.relational.expressions import Col, Comparison, Lit
from repro.relational.operators import (
    aggregate,
    entry_rows,
    join,
    project,
    project_entries,
    select,
    select_iter,
    transitive_closure,
)
from repro.relational.relation import Relation, relation_from_columns
from repro.relational.schema import Schema
from tests.relational import eq


@pytest.fixture
def emp():
    return relation_from_columns(
        "emp",
        id=[1, 2, 3, 4],
        name=["ann", "bob", "cat", "dan"],
        dept=["hw", "sw", "sw", "hw"],
    )


@pytest.fixture
def dept():
    return relation_from_columns("dept", code=["hw", "sw"], site=["nj", "ca"])


class TestSelect:
    def test_filters_rows(self, emp):
        out = select(emp, [eq("dept", "sw")])
        assert out.column("name") == ["bob", "cat"]

    def test_preserves_schema(self, emp):
        assert select(emp, [eq("dept", "sw")]).schema.attributes == emp.schema.attributes

    def test_empty_conditions_is_copy(self, emp):
        assert len(select(emp, [])) == len(emp)

    def test_select_iter_lazy(self, emp):
        rows = select_iter(iter(emp), emp.schema, [eq("dept", "hw")])
        assert next(rows) == (1, "ann", "hw")


class TestProject:
    def test_projects_and_dedups(self, emp):
        out = project(emp, ["dept"])
        assert sorted(out.column("dept")) == ["hw", "sw"]

    def test_reorders(self, emp):
        out = project(emp, ["name", "id"])
        assert out.rows[0] == ("ann", 1)

    def test_single_column_rows_are_tuples_in_first_occurrence_order(self, emp):
        out = project(emp, ["dept"], name="d")
        out.check_invariants()
        assert out.rows == [("hw",), ("sw",)] and out.schema.name == "d"

    def test_distinct_projection_is_the_per_row_rebuild(self, emp):
        rows = emp.rows + [(5, "ann", "hw")]
        for positions in [(2,), (1, 2), (2, 1, 2), (0, 1, 2)]:
            expected = [tuple(r[i] for i in positions) for r in rows]
            entries = [("col", i) for i in positions]
            assert list(entry_rows(iter(rows), entries)) == expected
            schema = Schema("cut", tuple(f"a{i}" for i in range(len(positions))))
            assert project_entries(iter(rows), entries, schema).rows == list(
                dict.fromkeys(expected)
            )


class TestJoin:
    def test_equi_join(self, emp, dept):
        out = join(emp, dept, [("dept", "code")], name="j")
        assert len(out) == 4
        assert out.schema.attributes == ("id", "name", "dept", "code", "site")

    def test_join_values_line_up(self, emp, dept):
        out = join(emp, dept, [("dept", "code")])
        for row in out:
            assert row[2] == row[3]

    def test_join_with_extra_condition(self, emp, dept):
        out = join(emp, dept, [("dept", "code")], conditions=[eq("site", "ca")])
        assert {row[1] for row in out} == {"bob", "cat"}

    def test_empty_pairs_is_cross(self, emp, dept):
        assert len(join(emp, dept, [])) == len(emp) * len(dept)

    def test_join_sides_swappable(self, emp, dept):
        small_left = join(dept, emp, [("code", "dept")])
        assert len(small_left) == 4

    def test_rows_come_in_the_streamed_sides_order(self, emp, dept):
        # ``dept`` is smaller, so it is built and ``emp`` is streamed ...
        assert [row[0] for row in join(emp, dept, [("dept", "code")])] == [1, 2, 3, 4]
        # ... unless the caller holds the build side fixed.
        forced = join(emp, dept, [("dept", "code")], build_left=True)
        assert [row[0] for row in forced] == [1, 4, 2, 3]
        assert forced == join(emp, dept, [("dept", "code")])

    def test_schema_clash_disambiguated(self):
        left = relation_from_columns("l", x=[1], y=[2])
        right = relation_from_columns("r", y=[2], z=[3])
        out = join(left, right, [("y", "y")])
        assert len(set(out.schema.attributes)) == 4


class TestAggregate:
    def test_group_count(self, emp):
        out = aggregate(emp, ["dept"], [("count", "", "n")])
        assert dict(out.rows) == {"hw": 2, "sw": 2}

    def test_group_min_max(self, emp):
        out = aggregate(emp, ["dept"], [("min", "id", "lo"), ("max", "id", "hi")])
        as_dict = {row[0]: row[1:] for row in out}
        assert as_dict == {"hw": (1, 4), "sw": (2, 3)}

    def test_global_aggregate(self, emp):
        out = aggregate(emp, [], [("sum", "id", "total")])
        assert out.rows == [(10,)]

    def test_global_count_of_empty(self):
        empty = Relation(Schema("p", ("x",)))
        out = aggregate(empty, [], [("count", "", "n")])
        assert out.rows == [(0,)]

    def test_avg(self, emp):
        out = aggregate(emp, [], [("avg", "id", "mean")])
        assert out.rows == [(2.5,)]

    def test_unknown_function_rejected(self, emp):
        with pytest.raises(EvaluationError):
            aggregate(emp, [], [("median", "id", "m")])

    def test_sum_over_empty_group_rejected(self):
        empty = Relation(Schema("p", ("x",)))
        with pytest.raises(EvaluationError):
            aggregate(empty, [], [("sum", "x", "s")])


class TestTransitiveClosure:
    def test_chain(self):
        edges = Relation(Schema("e", ("a", "b")), [(1, 2), (2, 3), (3, 4)])
        closure = transitive_closure(edges)
        assert (1, 4) in closure
        assert len(closure) == 6

    def test_cycle_terminates(self):
        edges = Relation(Schema("e", ("a", "b")), [(1, 2), (2, 1)])
        closure = transitive_closure(edges)
        assert len(closure) == 4  # (1,2),(2,1),(1,1),(2,2)

    def test_non_binary_rejected(self):
        bad = Relation(Schema("e", ("a", "b", "c")), [(1, 2, 3)])
        with pytest.raises(EvaluationError):
            transitive_closure(bad)

    def test_empty(self):
        edges = Relation(Schema("e", ("a", "b")))
        assert len(transitive_closure(edges)) == 0


# -- property-based tests -----------------------------------------------------

rows = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=0, max_size=20
)


@given(rows)
def test_select_then_union_partition(pairs):
    """select(P) ∪ select(¬P) == original, and the two are disjoint."""
    r = Relation(Schema("p", ("x", "y")), pairs)
    low = select(r, [Comparison(Col("x"), "<", Lit(3))])
    high = select(r, [Comparison(Col("x"), ">=", Lit(3))])
    assert set(low) | set(high) == set(r)
    assert len(low) + len(high) == len(r)


@given(rows)
def test_project_cardinality_bounds(pairs):
    r = Relation(Schema("p", ("x", "y")), pairs)
    out = project(r, ["x"])
    assert len(out) <= len(r)
    assert len(out) == len(r.distinct_values("x"))


@given(rows, rows)
def test_join_matches_nested_loop(left_pairs, right_pairs):
    left = Relation(Schema("l", ("a", "b")), left_pairs)
    right = Relation(Schema("r", ("c", "d")), right_pairs)
    out = join(left, right, [("b", "c")])
    expected = {l + r for l in left for r in right if l[1] == r[0]}
    assert set(out.rows) == expected


@given(rows)
def test_closure_is_transitive(pairs):
    r = Relation(Schema("e", ("a", "b")), pairs)
    closure = transitive_closure(r)
    rows_set = set(closure.rows)
    for a, b in rows_set:
        for c, d in rows_set:
            if b == c:
                assert (a, d) in rows_set
