"""Tests for PSJ and conjunctive-query evaluation."""

import pytest

from repro.common.errors import EvaluationError
from repro.logic.builtins import BuiltinRegistry
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.caql.ast import AggregateQuery, SetOfQuery
from repro.caql.eval import (
    evaluate_aggregate,
    evaluate_conjunctive,
    evaluate_psj,
    evaluate_setof,
    psj_of,
    split_literals,
)
from repro.caql.parser import parse_query
from repro.caql.psj import psj_from_literals


def normalize(text):
    query = parse_query(text)
    return psj_from_literals(
        query.name,
        *split_literals(query, BuiltinRegistry())[:2],
        query.answers,
    )


@pytest.fixture
def db():
    relations = {
        "parent": Relation(
            Schema("parent", ("a0", "a1")),
            [("tom", "bob"), ("tom", "liz"), ("bob", "ann"), ("bob", "pat")],
        ),
        "age": Relation(
            Schema("age", ("a0", "a1")),
            [("tom", 60), ("bob", 35), ("liz", 33), ("ann", 8), ("pat", 10)],
        ),
    }
    return relations.__getitem__


class TestEagerPSJ:
    def test_single_relation_scan(self, db):
        result = evaluate_psj(normalize("q(X, Y) :- parent(X, Y)"), db)
        assert len(result) == 4

    def test_selection_by_constant(self, db):
        result = evaluate_psj(normalize("q(Y) :- parent(tom, Y)"), db)
        assert set(result.rows) == {("bob",), ("liz",)}

    def test_join_via_shared_variable(self, db):
        result = evaluate_psj(normalize("q(X, Z) :- parent(X, Y), parent(Y, Z)"), db)
        assert set(result.rows) == {("tom", "ann"), ("tom", "pat")}

    def test_join_with_comparison(self, db):
        result = evaluate_psj(
            normalize("q(X, A) :- parent(X, Y), age(Y, A), A < 20"), db
        )
        assert set(result.rows) == {("bob", 8), ("bob", 10)}

    def test_constant_answer_column(self, db):
        result = evaluate_psj(normalize("q(Y, tom) :- parent(tom, Y)"), db)
        assert set(result.rows) == {("bob", "tom"), ("liz", "tom")}

    def test_unsatisfiable_query_empty(self, db):
        result = evaluate_psj(normalize("q(X) :- parent(X, Y), 1 > 2"), db)
        assert len(result) == 0

    def test_result_schema_positional(self, db):
        result = evaluate_psj(normalize("q(X, Y) :- parent(X, Y)"), db)
        assert result.schema.attributes == ("a0", "a1")

    def test_arity_mismatch_detected(self, db):
        with pytest.raises(EvaluationError):
            evaluate_psj(normalize("q(X) :- parent(X, Y, Z)"), db)

    def test_repeated_variable_selection(self, db):
        loops = Relation(Schema("e", ("a0", "a1")), [(1, 1), (1, 2), (3, 3)])
        result = evaluate_psj(normalize("q(X) :- e(X, X)"), {"e": loops}.__getitem__)
        assert set(result.rows) == {(1,), (3,)}

    def test_self_join(self, db):
        result = evaluate_psj(
            normalize("siblings(A, B) :- parent(P, A), parent(P, B), A \\= B"), db
        )
        assert ("bob", "liz") in result
        assert ("ann", "pat") in result
        assert ("bob", "bob") not in result

    def test_three_way_join(self, db):
        result = evaluate_psj(
            normalize(
                "q(X, Z, A) :- parent(X, Y), parent(Y, Z), age(Z, A)"
            ),
            db,
        )
        assert set(result.rows) == {("tom", "ann", 8), ("tom", "pat", 10)}


class TestConjunctiveWithEvaluable:
    def test_psj_of_extends_projection_for_evaluable_vars(self):
        registry = BuiltinRegistry()
        query = parse_query("q(X, S) :- age(X, A), plus(A, 1, S)")
        psj = psj_of(query, registry)
        # S is not PSJ-computable; A must be carried for the builtin.
        assert psj.arity >= 2

    def test_evaluable_literal_computed(self, db):
        registry = BuiltinRegistry()
        query = parse_query("q(X, S) :- age(X, A), plus(A, 1, S)")
        result = evaluate_conjunctive(query, db, registry)
        assert ("tom", 61) in result
        assert len(result) == 5

    def test_plain_conjunctive_no_builtins(self, db):
        query = parse_query("q(Y) :- parent(tom, Y)")
        result = evaluate_conjunctive(query, db)
        assert set(result.rows) == {("bob",), ("liz",)}

    def test_evaluable_as_filter(self, db):
        registry = BuiltinRegistry()
        query = parse_query("q(X) :- age(X, A), abs(A, A), A > 30")
        result = evaluate_conjunctive(query, db, registry)
        assert set(result.rows) == {("tom",), ("bob",), ("liz",)}


class TestSecondOrder:
    def test_aggregate_count_children(self, db):
        base = parse_query("q(X, Y) :- parent(X, Y)")
        base_result = evaluate_conjunctive(base, db)
        agg = AggregateQuery(base, group_by=(0,), aggregations=(("count", 1, "n"),))
        result = evaluate_aggregate(agg, base_result)
        assert set(result.rows) == {("tom", 2), ("bob", 2)}

    def test_aggregate_global_max(self, db):
        base = parse_query("q(X, A) :- age(X, A)")
        base_result = evaluate_conjunctive(base, db)
        agg = AggregateQuery(base, group_by=(), aggregations=(("max", 1, "oldest"),))
        result = evaluate_aggregate(agg, base_result)
        assert result.rows == [(60,)]

    def test_setof_identity(self, db):
        base = parse_query("q(X) :- parent(X, Y)")
        base_result = evaluate_conjunctive(base, db)
        result = evaluate_setof(SetOfQuery(base), base_result)
        assert result is base_result

    def test_bagof_adds_count_column(self, db):
        base = parse_query("q(X) :- parent(X, Y)")
        base_result = evaluate_conjunctive(base, db)
        result = evaluate_setof(SetOfQuery(base, with_counts=True), base_result)
        assert result.schema.attributes[-1] == "count"
        assert all(row[-1] == 1 for row in result)
