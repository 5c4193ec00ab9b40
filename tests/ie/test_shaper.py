"""Tests for the problem graph shaper."""

import pytest

from repro.common.errors import (
    CircuitOpenError,
    InvariantViolation,
    TransientRemoteError,
    UnknownRelationError,
)
from repro.logic.kb import KnowledgeBase
from repro.logic.parser import parse_atom
from repro.logic.soa import FunctionalDependency, MutualExclusion
from repro.logic.terms import Atom, Const, Var
from repro.relational.statistics import RelationStatistics
from repro.ie.extractor import extract_problem_graph
from repro.ie.shaper import shape


def make_kb(rules, database=(("b1", 2), ("b2", 2), ("big", 2), ("small", 2))):
    kb = KnowledgeBase()
    for pred, arity in database:
        kb.declare_database(pred, arity)
    kb.add_rules(rules)
    return kb


class TestBuiltinFolding:
    def test_true_ground_builtin_removed(self):
        kb = make_kb("p(X) :- b1(X, Y), 1 < 2.")
        graph = shape(extract_problem_graph(kb, parse_atom("p(X)")), kb)
        (rule,) = graph.alternatives
        assert [c.goal.pred for c in rule.body] == ["b1"]

    def test_false_ground_builtin_culls_rule(self):
        kb = make_kb("p(X) :- b1(X, Y), 2 < 1.")
        graph = shape(extract_problem_graph(kb, parse_atom("p(X)")), kb)
        assert graph.alternatives == []

    def test_equality_binding_propagates(self):
        kb = make_kb("p(X) :- X = 5, b1(X, Y).")
        graph = shape(extract_problem_graph(kb, parse_atom("p(X)")), kb)
        (rule,) = graph.alternatives
        b1 = next(c for c in rule.body if c.goal.pred == "b1")
        assert b1.goal.args[0] == Const(5)

    def test_query_constant_triggers_folding(self):
        kb = make_kb("p(X) :- b1(X, Y), X < 3.")
        graph = shape(extract_problem_graph(kb, parse_atom("p(1)")), kb)
        (rule,) = graph.alternatives
        assert [c.goal.pred for c in rule.body] == ["b1"]
        graph2 = shape(extract_problem_graph(kb, parse_atom("p(9)")), kb)
        assert graph2.alternatives == []


class TestMutualExclusionCulling:
    def test_exclusive_pair_culls_rule(self):
        kb = make_kb("p(X) :- male(X), female(X).", database=(("male", 1), ("female", 1)))
        kb.add_soa(MutualExclusion((Atom("male", (Var("A"),)), Atom("female", (Var("A"),)))))
        graph = shape(extract_problem_graph(kb, parse_atom("p(X)")), kb)
        assert graph.alternatives == []

    def test_non_exclusive_rule_survives(self):
        kb = make_kb("p(X) :- male(X), tall(X).", database=(("male", 1), ("tall", 1), ("female", 1)))
        kb.add_soa(MutualExclusion((Atom("male", (Var("A"),)), Atom("female", (Var("A"),)))))
        graph = shape(extract_problem_graph(kb, parse_atom("p(X)")), kb)
        assert len(graph.alternatives) == 1


class TestOrdering:
    def stats(self, pred):
        table = {"big": 10_000, "small": 10}
        stats = RelationStatistics(cardinality=table.get(pred, 100))
        return stats

    def test_smaller_relation_first(self):
        kb = make_kb("p(X, Y) :- big(X, Z), small(Z, Y).")
        graph = shape(
            extract_problem_graph(kb, parse_atom("p(X, Y)")), kb, stats_of=self.stats
        )
        (rule,) = graph.alternatives
        assert [c.goal.pred for c in rule.body] == ["small", "big"]

    def test_bound_arguments_reduce_cost(self):
        # big has a constant argument: selectivity discounts beat small.
        kb = make_kb("p(Y) :- big(c, Z), small(Z, Y).")
        graph = shape(
            extract_problem_graph(kb, parse_atom("p(Y)")), kb, stats_of=self.stats
        )
        (rule,) = graph.alternatives
        # big: 10000 * 0.1 = 1000 vs small: 10 -> small still first.
        assert rule.body[0].goal.pred == "small"

    def test_fd_key_lookup_first(self):
        kb = make_kb("p(Y) :- big(c, Y), small(Y, Z).")
        kb.add_soa(FunctionalDependency("big", 2, (0,), (1,)))
        graph = shape(
            extract_problem_graph(kb, parse_atom("p(Y)")), kb, stats_of=self.stats
        )
        (rule,) = graph.alternatives
        assert rule.body[0].goal.pred == "big"  # key bound: one row

    def test_builtin_waits_for_bindings(self):
        kb = make_kb("p(X, Y) :- X < Y, b1(X, Z), b2(Z, Y).")
        graph = shape(extract_problem_graph(kb, parse_atom("p(X, Y)")), kb)
        (rule,) = graph.alternatives
        preds = [c.goal.pred for c in rule.body]
        assert preds.index("<") > preds.index("b1")
        assert preds.index("<") > preds.index("b2")

    def test_reorder_disabled(self):
        kb = make_kb("p(X, Y) :- big(X, Z), small(Z, Y).")
        graph = shape(
            extract_problem_graph(kb, parse_atom("p(X, Y)")),
            kb,
            stats_of=self.stats,
            reorder=False,
        )
        (rule,) = graph.alternatives
        assert [c.goal.pred for c in rule.body] == ["big", "small"]

    def test_nested_rules_shaped(self):
        kb = make_kb(
            """
            p(X) :- q(X).
            q(X) :- big(X, Y), 2 < 1.
            """
        )
        graph = shape(extract_problem_graph(kb, parse_atom("p(X)")), kb)
        (rule,) = graph.alternatives
        inner = rule.body[0]
        assert inner.alternatives == []  # culled inside the nested rule


class TestStatisticsUnavailable:
    """One place decides "no statistics": a remote that cannot be asked (or
    does not know the relation) costs the unknown-relation sentinel; any
    other exception out of a lookup is a fault and surfaces."""

    RULE = "p(X, Y) :- big(X, Z), small(Z, Y)."

    def ordered(self, stats_of):
        kb = make_kb(self.RULE)
        graph = shape(
            extract_problem_graph(kb, parse_atom("p(X, Y)")), kb, stats_of=stats_of
        )
        (rule,) = graph.alternatives
        return [c.goal.pred for c in rule.body]

    @pytest.mark.parametrize(
        "error", [TransientRemoteError("link down"), UnknownRelationError("big")]
    )
    def test_a_failing_lookup_orders_like_no_statistics_at_all(self, error):
        def failing(pred):
            raise error

        assert self.ordered(failing) == self.ordered(None) == ["big", "small"]

    def test_one_relation_without_statistics_gets_the_sentinel(self):
        def partial(pred):
            if pred == "big":
                raise CircuitOpenError("breaker open")
            return RelationStatistics(cardinality=10_000)

        # big is costed at the sentinel (100), under small's 10 000 —
        # the opposite of what their names (and full statistics) say.
        assert self.ordered(partial) == ["big", "small"]
        assert self.ordered(
            lambda pred: RelationStatistics(cardinality=50 if pred == "small" else 10_000)
        ) == ["small", "big"]

    @pytest.mark.parametrize(
        "error", [InvariantViolation("planted"), AttributeError("planted")]
    )
    def test_a_fault_in_the_lookup_surfaces(self, error):
        def broken(pred):
            raise error

        with pytest.raises(type(error), match="planted"):
            self.ordered(broken)

    def test_a_lookup_that_answers_none_is_a_programming_error(self):
        # What InferenceEngine._stats_of used to turn every failure into.
        with pytest.raises(AttributeError):
            self.ordered(lambda pred: None)
