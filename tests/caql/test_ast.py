"""Tests for the CAQL AST."""

import pytest

from repro.common.errors import TranslationError
from repro.logic.terms import Atom, Const, Substitution, Var
from repro.caql.ast import AggregateQuery, ConjunctiveQuery, SetOfQuery
from repro.caql.eval import split_literals
from repro.logic.builtins import BuiltinRegistry
from repro.caql.parser import parse_query

X, Y, Z = Var("X"), Var("Y"), Var("Z")


def d2():
    return parse_query("d2(X, Y) :- b2(X, Z), b3(Z, c2, Y)")


class TestConjunctiveQuery:
    def test_parse_shape(self):
        query = d2()
        assert query.name == "d2"
        assert query.arity == 2
        assert len(query.literals) == 2

    def test_answer_variable_must_occur_in_body(self):
        with pytest.raises(TranslationError):
            ConjunctiveQuery("q", (X,), (Atom("p", (Y,)),))

    def test_constant_answers_allowed(self):
        query = ConjunctiveQuery("q", (Const(1), X), (Atom("p", (X,)),))
        assert query.answers == (Const(1), X) and query.arity == 2

    def test_body_variables(self):
        assert d2().body_variables() == {X, Y, Z}

    def test_relation_vs_comparison_literals(self):
        query = parse_query("q(X) :- p(X, A), A >= 18")
        relations, comparisons, evaluable = split_literals(query, BuiltinRegistry())
        assert [l.pred for l in relations] == ["p"]
        assert [l.pred for l in comparisons] == [">="]
        assert evaluable == []

    def test_instantiate(self):
        query = d2()
        bound = query.instantiate(Substitution({Y: Const("c6")}))
        assert bound.answers == (X, Const("c6"))
        assert bound.literals[1].args[2] == Const("c6")

    def test_str_roundtrip_shape(self):
        text = str(d2())
        assert text.startswith("d2(X, Y) :- ")
        assert "b3(Z, c2, Y)" in text


class TestAggregateQuery:
    def test_valid(self):
        agg = AggregateQuery(d2(), group_by=(0,), aggregations=(("count", 1, "n"),))
        assert "count" in str(agg)

    def test_group_index_checked(self):
        with pytest.raises(TranslationError):
            AggregateQuery(d2(), group_by=(5,), aggregations=(("count", 0, "n"),))

    def test_agg_index_checked(self):
        with pytest.raises(TranslationError):
            AggregateQuery(d2(), group_by=(), aggregations=(("sum", 9, "s"),))

    def test_needs_aggregations(self):
        with pytest.raises(TranslationError):
            AggregateQuery(d2(), group_by=(0,), aggregations=())


class TestSetOfQuery:
    def test_setof_str(self):
        assert str(SetOfQuery(d2())) == "SETOF[d2]"

    def test_bagof_str(self):
        assert str(SetOfQuery(d2(), with_counts=True)) == "BAGOF[d2]"
