"""End-to-end tests for the inference engine across all strategies."""

import sys

import pytest

from repro.common.errors import CircuitOpenError, InferenceError
from repro.common.metrics import IE_CAQL_QUERIES, REMOTE_REQUESTS, REMOTE_TUPLES
from repro.logic.kb import KnowledgeBase
from repro.logic.parser import parse_atom
from repro.logic.soa import RecursiveStructure
from repro.relational.relation import relation_from_columns
from repro.remote.server import RemoteDBMS
from repro.core.cms import CacheManagementSystem
from repro.ie.controller import MAX_DEPTH
from repro.ie.engine import InferenceEngine
from repro.workloads.genealogy import genealogy

FAMILY = {
    "parent": dict(
        par=["tom", "tom", "bob", "bob", "ann", "liz"],
        child=["bob", "liz", "ann", "pat", "joe", "sue"],
    ),
    "age": dict(
        person=["tom", "bob", "liz", "ann", "pat", "joe", "sue"],
        years=[60, 35, 33, 12, 10, 2, 1],
    ),
    "male": dict(person=["tom", "bob", "pat", "joe"]),
}

RULES = """
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
father(X, Y) :- parent(X, Y), male(X).
grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
minor(X) :- age(X, A), A < 18.
adult_parent(X) :- parent(X, Y), age(X, A), A >= 18.
childless(X) :- age(X, A), \\+ parent(X, Y).
"""


def build_system():
    server = RemoteDBMS()
    for name, columns in FAMILY.items():
        server.load_table(relation_from_columns(name, **columns))
    kb = KnowledgeBase()
    kb.declare_database("parent", 2)
    kb.declare_database("age", 2)
    kb.declare_database("male", 1)
    kb.add_rules(RULES)
    kb.add_soa(RecursiveStructure("ancestor", "parent"))
    cms = CacheManagementSystem(server)
    return kb, cms


@pytest.fixture(params=["interpreted", "conjunction", "compiled"])
def engine(request):
    kb, cms = build_system()
    return InferenceEngine(kb, cms, strategy=request.param)


class TestCorrectnessAcrossStrategies:
    def test_database_query(self, engine):
        solutions = engine.ask_all("parent(tom, W)")
        assert sorted(s["W"] for s in solutions) == ["bob", "liz"]

    def test_single_rule(self, engine):
        solutions = engine.ask_all("grandparent(tom, W)")
        assert sorted(s["W"] for s in solutions) == ["ann", "pat", "sue"]

    def test_join_with_comparison(self, engine):
        solutions = engine.ask_all("minor(X)")
        assert sorted(s["X"] for s in solutions) == ["ann", "joe", "pat", "sue"]

    def test_recursion(self, engine):
        solutions = engine.ask_all("ancestor(tom, W)")
        assert sorted(s["W"] for s in solutions) == [
            "ann", "bob", "joe", "liz", "pat", "sue",
        ]

    def test_bound_query_succeeds(self, engine):
        assert engine.ask("ancestor(tom, joe)").first() is not None

    def test_bound_query_fails(self, engine):
        assert engine.ask("ancestor(joe, tom)").first() is None

    def test_two_relation_join(self, engine):
        solutions = engine.ask_all("father(X, Y)")
        pairs = sorted((s["X"], s["Y"]) for s in solutions)
        assert pairs == [("bob", "ann"), ("bob", "pat"), ("tom", "bob"), ("tom", "liz")]

    def test_multi_condition_rule(self, engine):
        solutions = engine.ask_all("adult_parent(X)")
        # ann is a parent but only 12: excluded by the age condition.
        assert sorted({s["X"] for s in solutions}) == ["bob", "liz", "tom"]


class TestInterpretiveSpecifics:
    def test_negation_as_failure(self):
        kb, cms = build_system()
        engine = InferenceEngine(kb, cms, strategy="conjunction")
        solutions = engine.ask_all("childless(X)")
        assert sorted({s["X"] for s in solutions}) == ["joe", "pat", "sue"]

    def test_compiled_rejects_negation(self):
        kb, cms = build_system()
        engine = InferenceEngine(kb, cms, strategy="compiled")
        with pytest.raises(InferenceError):
            engine.ask("childless(X)")

    def test_first_solution_is_lazy(self):
        kb, cms = build_system()
        engine = InferenceEngine(kb, cms, strategy="conjunction")
        first = engine.ask_first("ancestor(tom, W)")
        assert first is not None
        # Pulling only one solution must not have explored the whole tree:
        # fewer CAQL queries than the full enumeration needs.
        queries_first = cms.metrics.get(IE_CAQL_QUERIES)
        kb2, cms2 = build_system()
        engine2 = InferenceEngine(kb2, cms2, strategy="conjunction")
        engine2.ask_all("ancestor(tom, W)")
        assert queries_first < cms2.metrics.get(IE_CAQL_QUERIES)

    def test_depth_limit(self):
        server = RemoteDBMS()
        server.load_table(relation_from_columns("edge", a=[1, 2], b=[2, 1]))
        kb = KnowledgeBase()
        kb.declare_database("edge", 2)
        kb.add_rules(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            """
        )
        cms = CacheManagementSystem(server)
        engine = InferenceEngine(kb, cms, strategy="conjunction")
        # The recursion over cyclic edge data never ends: MAX_DEPTH trips.
        with pytest.raises(InferenceError, match=f"depth limit {MAX_DEPTH}"):
            engine.ask_all("path(1, 9)")

    def test_cyclic_data_via_compiled(self):
        server = RemoteDBMS()
        server.load_table(relation_from_columns("edge", a=[1, 2], b=[2, 1]))
        kb = KnowledgeBase()
        kb.declare_database("edge", 2)
        kb.add_rules(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            """
        )
        cms = CacheManagementSystem(server)
        engine = InferenceEngine(kb, cms, strategy="compiled")
        solutions = engine.ask_all("path(1, W)")
        assert sorted(s["W"] for s in solutions) == [1, 2]


class TestICRangeCharacteristics:
    """Section 2: the strategies differ in request count and granularity."""

    def test_interpreted_issues_more_caql_queries(self):
        counts = {}
        for strategy in ("interpreted", "conjunction", "compiled"):
            kb, cms = build_system()
            engine = InferenceEngine(kb, cms, strategy=strategy)
            engine.ask_all("adult_parent(X)")
            counts[strategy] = cms.metrics.get(IE_CAQL_QUERIES)
        assert counts["interpreted"] > counts["conjunction"]
        # Compiled issues one whole-relation request per base relation.
        assert counts["compiled"] <= counts["interpreted"]

    def test_compiled_ships_whole_relations_for_recursion(self):
        kb, cms = build_system()
        engine = InferenceEngine(kb, cms, strategy="compiled")
        engine.ask_all("ancestor(tom, W)")
        # Recursion needs the whole parent relation on the workstation.
        assert cms.metrics.get(REMOTE_TUPLES) >= 6

    def test_compiled_unfolds_nonrecursive_queries(self):
        kb, cms = build_system()
        engine = InferenceEngine(kb, cms, strategy="compiled")
        solutions = engine.ask_all("grandparent(tom, W)")
        assert sorted(s["W"] for s in solutions) == ["ann", "pat", "sue"]
        # The join was pushed to the server: only results crossed the wire.
        assert cms.metrics.get(REMOTE_TUPLES) == 3

    def test_conjunction_pushes_join_to_server(self):
        kb, cms = build_system()
        engine = InferenceEngine(kb, cms, strategy="conjunction")
        engine.ask_all("father(X, Y)")
        # One data request for the whole (parent ⋈ male) conjunction.
        shipped = cms.metrics.get(REMOTE_TUPLES)
        assert shipped == 4


class TestAdviceIntegration:
    def test_advice_generated_by_default(self):
        kb, cms = build_system()
        engine = InferenceEngine(kb, cms, strategy="conjunction")
        engine.ask_first("grandparent(tom, W)")
        assert engine.last_advice is not None
        assert engine.last_advice.views
        assert engine.last_advice.path_expression is not None

    def test_advice_disabled(self):
        kb, cms = build_system()
        engine = InferenceEngine(kb, cms, strategy="conjunction", generate_advice=False)
        engine.ask_first("grandparent(tom, W)")
        assert engine.last_advice is None

    def test_repeat_question_hits_cache(self):
        kb, cms = build_system()
        engine = InferenceEngine(kb, cms, strategy="conjunction")
        engine.ask_all("grandparent(tom, W)")
        before = cms.metrics.get(REMOTE_REQUESTS)
        engine.ask_all("grandparent(tom, W)")
        assert cms.metrics.get(REMOTE_REQUESTS) == before

    def test_unknown_strategy_rejected(self):
        kb, cms = build_system()
        with pytest.raises(InferenceError):
            InferenceEngine(kb, cms, strategy="quantum")


class TestSolutions:
    def test_solution_dict_keys(self):
        kb, cms = build_system()
        engine = InferenceEngine(kb, cms)
        (solution,) = engine.ask_all("parent(X, joe)")
        assert solution == {"X": "ann"}

    def test_ground_query_solution_is_empty_dict(self):
        kb, cms = build_system()
        engine = InferenceEngine(kb, cms)
        solutions = engine.ask_all("parent(tom, bob)")
        assert solutions == [{}]

    def test_first_none_when_no_solutions(self):
        kb, cms = build_system()
        engine = InferenceEngine(kb, cms)
        assert engine.ask_first("parent(joe, X)") is None


class TestStatisticsLookupFailures:
    """The IE hands the shaper the bridge's own ``statistics_of``: a remote
    that cannot answer costs an unknown relation (same plan, same answers
    as a healthy run without statistics); anything else is not swallowed."""

    GOAL = "adult_parent(X)"

    def ask(self, statistics_of=None, **kwargs):
        kb, cms = build_system()
        if statistics_of is not None:
            cms.statistics_of = statistics_of
        return self.plan(InferenceEngine(kb, cms, strategy="conjunction", **kwargs))

    def plan(self, engine):
        answers = sorted({s["X"] for s in engine.ask_all(self.GOAL)})
        (rule,) = engine.last_graph.alternatives
        return answers, [child.goal.pred for child in rule.body]

    def test_a_dark_remote_plans_like_no_statistics(self):
        def dark(pred):
            raise CircuitOpenError("breaker open")

        assert self.ask(dark) == self.ask(use_statistics=False)
        assert self.ask(dark)[0] == self.ask()[0] == ["bob", "liz", "tom"]

    def test_a_graph_shaped_in_the_dark_is_not_kept(self):
        kb, cms = build_system()
        engine = InferenceEngine(kb, cms, strategy="conjunction")
        healthy, looked_up = cms.statistics_of, []

        def dark(pred):
            looked_up.append(pred)
            raise CircuitOpenError("breaker open")

        def counting(pred):
            looked_up.append(pred)
            return healthy(pred)

        cms.statistics_of = dark
        assert self.plan(engine) == self.ask(dark)
        assert looked_up
        looked_up.clear()
        cms.statistics_of = counting
        assert self.plan(engine) == self.ask()
        assert looked_up, "the healthy ask must retry the lookups"
        looked_up.clear()
        assert self.plan(engine) == self.ask()
        assert not looked_up, "a graph shaped healthy is kept"

    def test_a_programming_error_in_the_lookup_surfaces(self):
        def broken(pred):
            raise ZeroDivisionError("planted")

        with pytest.raises(ZeroDivisionError, match="planted"):
            self.ask(broken)


@pytest.mark.parametrize("strategy", ["interpreted", "conjunction"])
def test_a_goal_shape_is_built_once(strategy, monkeypatch):
    """Asking ``ancestor(pK, W)`` for every person, plus one goal of each
    other kind, builds one graph per shape — not one per ask and per
    recursive re-expansion."""
    builds = []
    for name, module in list(sys.modules.items()):
        real = getattr(module, "extract_problem_graph", None)
        if name.startswith("repro.ie.") and name != "repro.ie.extractor" and real:

            def counting(kb, goal, real=real):
                builds.append(goal)
                return real(kb, goal)

            monkeypatch.setattr(module, "extract_problem_graph", counting)
    family = genealogy(generations=4, branching=2, roots=2, seed=5)
    server = RemoteDBMS()
    for table in family.tables:
        server.load_table(table)
    engine = InferenceEngine(family.build_kb(), CacheManagementSystem(server), strategy=strategy)
    people = sorted({row[0] for row in family.tables[3]}, key=lambda p: int(p[1:]))
    person, relative = people[0], people[-1]
    goals = [f"ancestor({p}, W)" for p in people] + [
        f"father({person}, Y)",
        f"mother({person}, Y)",
        f"sibling({relative}, S)",
        f"brother({relative}, Y)",
        f"sister({relative}, Y)",
        f"grandparent({person}, W)",
        f"uncle(U, {relative})",
        f"aunt(U, {relative})",
        f"cousin({relative}, Y)",
        "adult(X)",
        "minor(X)",
        "elder(X)",
        "parent_of_minor(X)",
        f"same_generation({relative}, Q)",
    ]
    solutions = [engine.ask_all(goal) for goal in goals]
    assert any(solutions[: len(people)]) and any(solutions[len(people):])
    shapes = {(g.pred, tuple(type(a) for a in g.args)) for g in map(parse_atom, goals)}
    assert len(builds) <= len(shapes), (len(builds), len(shapes))
