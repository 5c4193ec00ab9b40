"""Tests for the view specifier, anchored on the paper's examples."""


from repro.logic.kb import KnowledgeBase
from repro.logic.parser import parse_atom, parse_clause
from repro.logic.terms import Substitution, Var
from repro.advice.view_spec import Binding
from repro.ie.extractor import extract_problem_graph
from repro.ie.shaper import shape
from repro.ie.template import GraphTemplates
from repro.ie.view_specifier import (
    SpecifierConfig,
    SpecifierResult,
    minimal_argument_set,
    specify_views,
)

PAPER_DB = (("b1", 2), ("b2", 2), ("b3", 3))


def paper_kb():
    """Example 1 of Section 4.2.2."""
    kb = KnowledgeBase()
    for pred, arity in PAPER_DB:
        kb.declare_database(pred, arity)
    kb.add_rules(
        """
        k1(X, Y) :- b1(c1, Y), k2(X, Y).
        k2(X, Y) :- b2(X, Z), b3(Z, c2, Y).
        k2(X, Y) :- b3(X, c3, Z), b1(Z, Y).
        """
    )
    return kb


def specified(kb, query, config=None, shaped=True):
    graph = extract_problem_graph(kb, parse_atom(query))
    if shaped:
        shape(graph, kb, reorder=False)
    return graph, specify_views(graph, kb, config)


class TestMinimalArgumentSet:
    def test_paper_formula_example(self):
        # k9(X,Y) <- k2(X,Z) & b1(Z,W) & b2(W,U) & b3(U,V) & k3(V,Y)
        # run = b1,b2,b3 -> d(Z, V).
        clause = parse_clause(
            "k9(X, Y) :- k2(X, Z), b1(Z, W), b2(W, U), b3(U, V), k3(V, Y)."
        )
        run = list(clause.body[1:4])
        rest = [clause.body[0], clause.body[4]]
        answers = minimal_argument_set(clause.head, run, rest)
        assert answers == [Var("Z"), Var("V")]

    def test_head_variables_kept(self):
        clause = parse_clause("p(A) :- b1(A, B).")
        answers = minimal_argument_set(clause.head, list(clause.body), [])
        assert answers == [Var("A")]

    def test_internal_variables_dropped(self):
        clause = parse_clause("p(A) :- b1(A, B), b2(B, C).")
        answers = minimal_argument_set(clause.head, list(clause.body), [])
        assert Var("B") not in answers
        assert Var("C") not in answers

    def test_order_by_first_occurrence_in_run(self):
        clause = parse_clause("p(B, A) :- b1(A, B).")
        answers = minimal_argument_set(clause.head, list(clause.body), [])
        assert answers == [Var("A"), Var("B")]


class TestPaperExample1:
    def test_three_views_produced(self):
        kb = paper_kb()
        _graph, result = specified(kb, "k1(X, Y)")
        assert len(result.views) == 3

    def test_d1_shape(self):
        kb = paper_kb()
        _graph, result = specified(kb, "k1(X, Y)")
        d1 = result.views[0]
        assert [l.pred for l in d1.definition.literals] == ["b1"]
        assert d1.definition.arity == 1
        assert d1.annotations == (Binding.PRODUCER,)
        assert d1.rule_ids == ("R1",)

    def test_d2_shape(self):
        kb = paper_kb()
        _graph, result = specified(kb, "k1(X, Y)")
        d2 = result.views[1]
        assert [l.pred for l in d2.definition.literals] == ["b2", "b3"]
        assert d2.definition.arity == 2
        # X is produced; Y was bound by d1 before k2 is invoked.
        assert d2.annotations == (Binding.PRODUCER, Binding.CONSUMER)
        assert d2.rule_ids == ("R2",)

    def test_d3_shape(self):
        kb = paper_kb()
        _graph, result = specified(kb, "k1(X, Y)")
        d3 = result.views[2]
        assert [l.pred for l in d3.definition.literals] == ["b3", "b1"]
        assert d3.annotations == (Binding.PRODUCER, Binding.CONSUMER)
        assert d3.rule_ids == ("R3",)

    def test_runs_recorded_on_nodes(self):
        kb = paper_kb()
        graph, result = specified(kb, "k1(X, Y)")
        (r1,) = graph.alternatives
        assert len(r1.runs) == 1
        start, end, name, answers = r1.runs[0]
        assert (start, end) == (0, 1)
        assert name == result.views[0].name


class TestMaxConjuncts:
    def test_interpreted_config_splits_runs(self):
        kb = paper_kb()
        _graph, result = specified(
            kb, "k1(X, Y)", SpecifierConfig(max_conjuncts=1, flatten=0)
        )
        # Every view holds exactly one database literal.
        for view in result.views:
            database_literals = [
                l for l in view.definition.literals if l.pred.startswith("b")
            ]
            assert len(database_literals) == 1
        assert len(result.views) == 5  # b1 | b2, b3 | b3, b1

    def test_comparisons_ride_with_runs(self):
        kb = KnowledgeBase()
        kb.declare_database("age", 2)
        kb.add_rules("adult(X) :- age(X, A), A >= 18.")
        _graph, result = specified(kb, "adult(X)")
        (view,) = result.views
        assert [l.pred for l in view.definition.literals] == ["age", ">="]

    def test_negated_database_literal_excluded_from_runs(self):
        kb = KnowledgeBase()
        kb.declare_database("person", 1)
        kb.declare_database("parent", 2)
        kb.add_rules("childless(X) :- person(X), \\+ parent(X, Y).")
        _graph, result = specified(kb, "childless(X)")
        # Only the positive literal forms a view.
        assert len(result.views) == 1
        assert result.views[0].definition.literals[0].pred == "person"


class TestFlattening:
    def test_single_rule_inlined(self):
        kb = KnowledgeBase()
        kb.declare_database("b1", 2)
        kb.declare_database("b2", 2)
        kb.add_rules(
            """
            p(X, Y) :- b1(X, Z), helper(Z, Y).
            helper(A, B) :- b2(A, B).
            """
        )
        _graph, result = specified(kb, "p(X, Y)", SpecifierConfig(flatten=2))
        # Flattening merges b1 and b2 into one two-literal run.
        assert len(result.views) == 1
        assert [l.pred for l in result.views[0].definition.literals] == ["b1", "b2"]

    def test_no_flattening_keeps_separate_views(self):
        kb = KnowledgeBase()
        kb.declare_database("b1", 2)
        kb.declare_database("b2", 2)
        kb.add_rules(
            """
            p(X, Y) :- b1(X, Z), helper(Z, Y).
            helper(A, B) :- b2(A, B).
            """
        )
        _graph, result = specified(kb, "p(X, Y)", SpecifierConfig(flatten=0))
        assert len(result.views) == 2

    def test_disjunctive_helper_not_inlined(self):
        kb = KnowledgeBase()
        kb.declare_database("b1", 2)
        kb.declare_database("b2", 2)
        kb.declare_database("b3", 2)
        kb.add_rules(
            """
            p(X, Y) :- b1(X, Z), helper(Z, Y).
            helper(A, B) :- b2(A, B).
            helper(A, B) :- b3(A, B).
            """
        )
        _graph, result = specified(kb, "p(X, Y)", SpecifierConfig(flatten=2))
        assert len(result.views) == 3  # b1 | b2 | b3 (disjunction preserved)


class TestRootDatabaseQuery:
    def test_root_view_created(self):
        kb = paper_kb()
        _graph, result = specified(kb, "b1(c1, Y)")
        assert result.root_view is not None
        view = result.by_name[result.root_view]
        assert view.definition.literals[0].pred == "b1"
        assert view.definition.arity == 1


class TestViewNameReuse:
    def test_identical_runs_share_names(self):
        kb = paper_kb()
        graph = GraphTemplates(kb).graph_for(parse_atom("k1(X, Y)"), SpecifierConfig(), None)
        session = SpecifierResult()
        graph.register(session, Substitution())
        before = list(session.views)
        # Register the same graph into the same registry: nothing new.
        graph.register(session, Substitution())
        assert session.views == before
