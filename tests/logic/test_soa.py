"""Tests for second-order assertions."""

import pytest

from repro.common.errors import KnowledgeBaseError
from repro.logic.soa import (
    FunctionalDependency,
    MutualExclusion,
    RecursiveStructure,
    SOARegistry,
)
from repro.logic.terms import Atom, Const, Var

X, Y = Var("X"), Var("Y")
a, b = Const("a"), Const("b")


class TestMutualExclusion:
    def test_needs_two_alternatives(self):
        with pytest.raises(KnowledgeBaseError):
            MutualExclusion((Atom("p", (X,)),))

    def test_max_true_bounds(self):
        alternatives = (Atom("p", (X,)), Atom("q", (X,)))
        with pytest.raises(KnowledgeBaseError):
            MutualExclusion(alternatives, max_true=2)
        with pytest.raises(KnowledgeBaseError):
            MutualExclusion(alternatives, max_true=0)

    def test_covers_matching_pair(self):
        me = MutualExclusion((Atom("male", (X,)), Atom("female", (X,))))
        assert me.covers([Atom("male", (a,)), Atom("female", (a,))])

    def test_shared_variable_enforced(self):
        me = MutualExclusion((Atom("male", (X,)), Atom("female", (X,))))
        assert not me.covers([Atom("male", (a,)), Atom("female", (b,))])

    def test_same_alternative_not_reused(self):
        me = MutualExclusion((Atom("male", (X,)), Atom("female", (X,))))
        assert not me.covers([Atom("male", (a,)), Atom("male", (a,))])

    def test_order_of_goals_irrelevant(self):
        me = MutualExclusion((Atom("male", (X,)), Atom("female", (X,))))
        assert me.covers([Atom("female", (a,)), Atom("male", (a,))])

    def test_too_many_goals(self):
        me = MutualExclusion((Atom("p", (X,)), Atom("q", (X,))))
        goals = [Atom("p", (a,)), Atom("q", (a,)), Atom("p", (b,))]
        assert not me.covers(goals)

    def test_three_way_exclusion(self):
        me = MutualExclusion(
            (Atom("solid", (X,)), Atom("liquid", (X,)), Atom("gas", (X,)))
        )
        assert me.covers([Atom("solid", (a,)), Atom("gas", (a,))])


class TestFunctionalDependency:
    def test_positions_validated(self):
        with pytest.raises(KnowledgeBaseError):
            FunctionalDependency("p", 2, (0,), (5,))

    def test_overlap_rejected(self):
        with pytest.raises(KnowledgeBaseError):
            FunctionalDependency("p", 2, (0,), (0,))


class TestRecursiveStructure:
    def test_transitive_closure_declared(self):
        rs = RecursiveStructure("ancestor", "parent")
        assert rs.kind == "transitive"

    def test_unsupported_kind_rejected(self):
        with pytest.raises(KnowledgeBaseError):
            RecursiveStructure("foo", "bar", kind="reflexive")

    def test_non_binary_rejected(self):
        with pytest.raises(KnowledgeBaseError):
            RecursiveStructure("foo", "bar", arity=3)


class TestRegistry:
    def test_dispatch_by_type(self):
        registry = SOARegistry()
        registry.add(MutualExclusion((Atom("p", (X,)), Atom("q", (X,)))))
        registry.add(FunctionalDependency("r", 2, (0,), (1,)))
        registry.add(RecursiveStructure("anc", "par"))
        assert len(registry.mutual_exclusions) == 1
        assert len(registry.functional_dependencies) == 1
        assert len(registry.recursive_structures) == 1

    def test_fds_for(self):
        registry = SOARegistry()
        registry.add(FunctionalDependency("r", 2, (0,), (1,)))
        assert registry.fds_for("r", 2)
        assert not registry.fds_for("r", 3)
        assert not registry.fds_for("s", 2)

    def test_recursive_for(self):
        registry = SOARegistry()
        registry.add(RecursiveStructure("anc", "par"))
        assert registry.recursive_for("anc") is not None
        assert registry.recursive_for("par") is None

    def test_exclusive_pair(self):
        registry = SOARegistry()
        registry.add(MutualExclusion((Atom("male", (X,)), Atom("female", (X,)))))
        assert registry.exclusive_pair(Atom("male", (a,)), Atom("female", (a,)))
        assert not registry.exclusive_pair(Atom("male", (a,)), Atom("female", (b,)))

    def test_unknown_type_rejected(self):
        registry = SOARegistry()
        with pytest.raises(KnowledgeBaseError):
            registry.add("not an SOA")
