"""Tests for the knowledge base."""

import pytest

from repro.common.errors import KnowledgeBaseError
from repro.logic.kb import KnowledgeBase
from repro.logic.parser import parse_atom, parse_clause
from repro.logic.terms import Atom, Var

ANCESTOR_RULES = """
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
"""


@pytest.fixture
def kb():
    base = KnowledgeBase()
    base.declare_database("parent", 2)
    base.add_rules(ANCESTOR_RULES)
    return base


class TestClassification:
    def test_database(self, kb):
        assert kb.classify(parse_atom("parent(X, Y)")) == "database"

    def test_user(self, kb):
        assert kb.classify(parse_atom("ancestor(X, Y)")) == "user"

    def test_builtin(self, kb):
        assert kb.classify(Atom("<", (Var("X"), Var("Y")))) == "builtin"

    def test_unknown(self, kb):
        assert kb.classify(parse_atom("mystery(X)")) == "unknown"

    def test_arity_distinguishes(self, kb):
        assert kb.classify(parse_atom("parent(X, Y, Z)")) == "unknown"


class TestOwnBuiltins:
    """A built-in registered on one knowledge base is that one's only."""

    @staticmethod
    def twice(atom, subst):
        yield subst

    def test_a_registration_does_not_leak_to_other_knowledge_bases(self):
        before = KnowledgeBase()
        registering = KnowledgeBase()
        registering.builtins.register("twice", 2, self.twice)
        after = KnowledgeBase()
        goal = parse_atom("twice(X, Y)")
        assert registering.classify(goal) == "builtin"
        assert before.classify(goal) == "unknown"
        assert after.classify(goal) == "unknown"

    def test_the_registry_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            KnowledgeBase(builtins=KnowledgeBase().builtins)


class TestDeclarations:
    def test_rule_for_database_relation_rejected(self, kb):
        with pytest.raises(KnowledgeBaseError):
            kb.add_clause(parse_clause("parent(X, Y) :- ancestor(X, Y)."))

    def test_database_declaration_after_rules_rejected(self, kb):
        with pytest.raises(KnowledgeBaseError):
            kb.declare_database("ancestor", 2)

    def test_rule_for_builtin_rejected(self, kb):
        with pytest.raises(KnowledgeBaseError):
            kb.add_clause(parse_clause("plus(X, Y, Z) :- ancestor(X, Y)."))

    def test_local_facts_allowed(self, kb):
        kb.add_rules("vip(tom).")
        assert kb.classify(parse_atom("vip(X)")) == "user"


class TestClauseAccess:
    def test_clauses_for(self, kb):
        clauses = kb.clauses_for(parse_atom("ancestor(X, Y)"))
        assert len(clauses) == 2

    def test_clauses_for_unknown_empty(self, kb):
        assert kb.clauses_for(parse_atom("mystery(X)")) == []

    def test_clause_order_preserved(self, kb):
        clauses = kb.clauses_for(parse_atom("ancestor(X, Y)"))
        assert len(clauses[0].body) == 1
        assert len(clauses[1].body) == 2


class TestConnectionGraph:
    def test_edges(self, kb):
        graph = kb.connection_graph()
        assert graph[("ancestor", 2)] == {("parent", 2), ("ancestor", 2)}

    def test_reachable(self, kb):
        reachable = kb.reachable_signatures(("ancestor", 2))
        assert ("parent", 2) in reachable
        assert ("ancestor", 2) in reachable

    def test_relevant_database_relations(self, kb):
        relations = kb.relevant_database_relations(parse_atom("ancestor(tom, X)"))
        assert relations == {("parent", 2)}

    def test_negated_literals_counted(self):
        kb = KnowledgeBase()
        kb.declare_database("parent", 2)
        kb.declare_database("person", 1)
        kb.add_rules("orphan(X) :- person(X), \\+ parent(Y, X).")
        relations = kb.relevant_database_relations(parse_atom("orphan(X)"))
        assert relations == {("person", 1), ("parent", 2)}

    def test_is_recursive(self, kb):
        assert kb.is_recursive(("ancestor", 2))

    def test_non_recursive(self):
        kb = KnowledgeBase()
        kb.declare_database("parent", 2)
        kb.add_rules("father(X, Y) :- parent(X, Y), male(X).")
        kb.add_rules("male(tom).")
        assert not kb.is_recursive(("father", 2))

    def test_mutual_recursion_detected(self):
        kb = KnowledgeBase()
        kb.declare_database("edge", 2)
        kb.add_rules(
            """
            even_path(X, Y) :- edge(X, Z), odd_path(Z, Y).
            odd_path(X, Y) :- edge(X, Y).
            odd_path(X, Y) :- edge(X, Z), even_path(Z, Y).
            """
        )
        assert kb.is_recursive(("even_path", 2))
        assert kb.is_recursive(("odd_path", 2))


class TestValidation:
    def test_valid_kb_has_no_problems(self, kb):
        assert kb.validate() == []

    def test_undefined_predicate_flagged(self):
        kb = KnowledgeBase()
        kb.add_rules("p(X) :- q(X).")
        problems = kb.validate()
        assert len(problems) == 1
        assert "q/1" in problems[0]
