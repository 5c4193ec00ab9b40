"""Tests for problem graph extraction."""

import pytest

from repro.logic.kb import KnowledgeBase
from repro.logic.parser import parse_atom
from repro.logic.terms import Atom, Const
from repro.ie.extractor import extract_problem_graph
from repro.ie.problem_graph import (
    BUILTIN,
    DATABASE,
    RECURSIVE_REF,
    UNKNOWN,
    USER,
)


@pytest.fixture
def kb():
    base = KnowledgeBase()
    base.declare_database("parent", 2)
    base.declare_database("person", 1)
    base.add_rules(
        """
        ancestor(X, Y) :- parent(X, Y).
        ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
        adult(X) :- person(X), age_over(X, 18).
        age_over(X, N) :- parent(X, Y).
        """
    )
    return base


class TestLeaves:
    def test_database_goal_is_leaf(self, kb):
        graph = extract_problem_graph(kb, parse_atom("parent(tom, X)"))
        assert graph.kind == DATABASE
        assert graph.alternatives == []

    def test_builtin_goal_is_leaf(self, kb):
        from repro.logic.terms import Var

        graph = extract_problem_graph(kb, Atom("<", (Var("X"), Var("Y"))))
        assert graph.kind == BUILTIN

    def test_unknown_goal(self, kb):
        graph = extract_problem_graph(kb, parse_atom("mystery(X)"))
        assert graph.kind == UNKNOWN


class TestExpansion:
    def test_user_goal_expands_alternatives(self, kb):
        graph = extract_problem_graph(kb, parse_atom("ancestor(tom, W)"))
        assert graph.kind == USER
        assert len(graph.alternatives) == 2
        assert [a.rule_id for a in graph.alternatives] == ["R1", "R2"]

    def test_constants_pushed_during_extraction(self, kb):
        graph = extract_problem_graph(kb, parse_atom("ancestor(tom, W)"))
        first_rule = graph.alternatives[0]
        parent_leaf = first_rule.body[0]
        assert parent_leaf.goal.args[0] == Const("tom")

    def test_recursive_occurrence_not_reexpanded(self, kb):
        graph = extract_problem_graph(kb, parse_atom("ancestor(tom, W)"))
        second_rule = graph.alternatives[1]
        kinds = [child.kind for child in second_rule.body]
        assert kinds == [DATABASE, RECURSIVE_REF]

    def test_nested_user_predicates(self, kb):
        graph = extract_problem_graph(kb, parse_atom("adult(X)"))
        (rule,) = graph.alternatives
        assert [c.kind for c in rule.body] == [DATABASE, USER]
        inner = rule.body[1]
        assert inner.alternatives[0].rule_id == "R4"

    def test_head_clash_culls_alternative(self, kb):
        kb.add_rules("special(tom).\nspecial(bob).")
        graph = extract_problem_graph(kb, parse_atom("special(liz)"))
        assert graph.alternatives == []  # neither fact head unifies

    def test_matching_fact_included(self, kb):
        kb.add_rules("special(tom).")
        graph = extract_problem_graph(kb, parse_atom("special(tom)"))
        assert len(graph.alternatives) == 1
        assert graph.alternatives[0].body == []


class TestHelpers:
    def test_variables_renamed_apart_between_rules(self, kb):
        graph = extract_problem_graph(kb, parse_atom("ancestor(tom, W)"))
        r1_vars = set()
        r2_vars = set()
        for leaf in graph.alternatives[0].body:
            r1_vars |= leaf.goal.variables()
        for leaf in graph.alternatives[1].body:
            r2_vars |= leaf.goal.variables()
        # W is shared (the query variable); rule-internal vars are not.
        internal_overlap = (r1_vars & r2_vars) - parse_atom("ancestor(tom, W)").variables()
        assert not internal_overlap
