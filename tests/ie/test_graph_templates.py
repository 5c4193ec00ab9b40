"""Graph templates: one problem graph per goal shape, bound per ask.

The memoising engine must be observably the engine that builds one graph
per ask: the same CAQL queries in the same order (up to the names of
variables), the same inference steps, the same simulated clock and the
same solutions.  The reference here is a fresh engine per ask whose every
template build is abandoned, which is exactly the one-graph-per-ask path.
A shape whose build reads a placeholder's value must be reported as
unmemoised.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.metrics import IE_INFERENCE_STEPS
from repro.logic.kb import KnowledgeBase
from repro.logic.parser import parse_atom
from repro.logic.soa import MutualExclusion
from repro.logic.terms import Atom, Var
from repro.relational.relation import relation_from_columns
from repro.remote.server import RemoteDBMS
from repro.core.cms import CacheManagementSystem
from repro.ie import template as templates_module
from repro.ie.engine import InferenceEngine
from repro.ie.problem_graph import PlaceholderRead
from repro.ie.strategies import specifier_config_for
from repro.workloads.genealogy import genealogy

STRATEGIES = ("interpreted", "conjunction")

# -- the two knowledge bases ------------------------------------------------------

FAMILY = genealogy(generations=4, branching=2, roots=2, seed=5)
PEOPLE = sorted(
    {row[0] for table in FAMILY.tables if table.schema.name == "age" for row in table},
    key=lambda person: int(person[1:]),
)


def genealogy_system():
    server = RemoteDBMS()
    for table in FAMILY.tables:
        server.load_table(table)
    return FAMILY.build_kb(), CacheManagementSystem(server)


#: One rule per placeholder read, beside rules that read none.
FALLBACK_RULES = """
p(1, Y) :- e(1, Y).
p(X, Y) :- e(X, Z), e(Z, Y).
q(X, X) :- n(X).
q(X, Y) :- e(X, Y).
big(X) :- n(X), X > 2.
s(X, Y) :- Y = X, n(Y).
t(X, Y) :- m(X), f(Y), e(X, Y).
path(X, Y) :- e(X, Y).
path(X, Y) :- e(X, Z), path(Z, Y).
hop2(X, Y) :- e(X, Z), e(Z, Y), X < Y.
lonely(X) :- n(X), \\+ e(X, Y).
"""

FALLBACK_TABLES = {
    "e": dict(src=[1, 1, 2, 3, 3, 4], dst=[2, 3, 3, 4, 5, 5]),
    "n": dict(x=[1, 2, 3, 4, 5, 6]),
    "m": dict(x=[1, 3, 5]),
    "f": dict(x=[2, 4, 6]),
}


def fallback_system():
    server = RemoteDBMS()
    kb = KnowledgeBase()
    for name, columns in FALLBACK_TABLES.items():
        server.load_table(relation_from_columns(name, **columns))
        kb.declare_database(name, len(columns))
    kb.add_rules(FALLBACK_RULES)
    x = Var("X")
    kb.add_soa(MutualExclusion((Atom("m", (x,)), Atom("f", (x,)))))
    return kb, CacheManagementSystem(server)


#: Goal kinds: text with ``{a}``/``{b}`` for constants, and whether the
#: shape has a template (False: its build reads a placeholder's value).
GENEALOGY_KINDS = {
    "ancestor({a}, W)": True,
    "ancestor(X, {a})": True,
    "ancestor({a}, {b})": True,
    "ancestor(A, A)": True,
    "grandparent({a}, W)": True,
    "sibling({a}, S)": True,
    "sibling({a}, {b})": False,  # ground \\= fold
    "uncle(U, {a})": True,
    "cousin({a}, Y)": True,
    "father({a}, Y)": True,
    "brother(B, {a})": True,
    "same_generation({a}, Q)": True,
    "adult(X)": True,
    "minor({a})": True,
    "parent_of_minor(X)": True,
    "parent({a}, W)": True,
    "male({a})": True,
    "\\+ancestor({a}, {b})": True,
}

FALLBACK_KINDS = {
    "p({a}, W)": False,  # head constant
    "p(W, {a})": True,
    "q({a}, {b})": False,  # repeated head variable
    "q({a}, W)": True,
    "q(W, W)": True,
    "big({a})": False,  # ground comparison
    "big(X)": True,
    "s({a}, W)": False,  # `=` binding
    "s(W, V)": True,
    "t({a}, {b})": False,  # exclusion SOA
    "t({a}, W)": True,
    "path({a}, W)": True,
    "path(W, {a})": True,
    "path({a}, {b})": True,
    "hop2({a}, W)": True,
    "hop2({a}, {b})": False,  # ground comparison
    "lonely({a})": True,
    "\\+path({a}, {b})": True,
    "e({a}, W)": True,
}

WORLDS = {
    "genealogy": (genealogy_system, GENEALOGY_KINDS, [*PEOPLE[:12], "nobody"]),
    "fallback": (fallback_system, FALLBACK_KINDS, [1, 2, 3, 4, 5, 6, 9]),
}


def goal_of(kind: str, a, b) -> Atom:
    negated = kind.startswith("\\+")
    goal = parse_atom(kind.removeprefix("\\+").format(a=a, b=b))
    return Atom(goal.pred, goal.args, negated=True) if negated else goal


# -- the comparison ------------------------------------------------------------------


def normal(query) -> str:
    """A CAQL query's text with variables named by first occurrence."""
    names: dict[Var, str] = {}

    def term(t):
        if isinstance(t, Var):
            return names.setdefault(t, f"V{len(names)}")
        return repr(t.value)

    answers = ", ".join(term(t) for t in query.answers)
    literals = " & ".join(
        f"{'~' if lit.negated else ''}{lit.pred}({', '.join(term(a) for a in lit.args)})"
        for lit in query.literals
    )
    return f"{query.name}({answers}) :- {literals}"


@contextmanager
def one_graph_per_ask():
    """Every template build is abandoned, as a placeholder read abandons
    it: each goal is solved with a graph built for it alone."""

    def abandoned(*_args):
        raise PlaceholderRead("reference run")

    with mock.patch.object(templates_module, "_build_template", abandoned):
        yield


def run(world: str, strategy: str, goals: list[Atom], memoising: bool):
    """Per ask (solutions, inference steps, clock), plus the CAQL log."""
    build, _kinds, _constants = WORLDS[world]
    kb, cms = build()
    log = []
    answer = cms.query

    def recorded(query):
        log.append(normal(query))
        return answer(query)

    cms.query = recorded
    engine = InferenceEngine(kb, cms, strategy=strategy)
    per_ask = []
    for goal in goals:
        if memoising:
            solutions = engine.ask_all(goal)
        else:
            with one_graph_per_ask():
                solutions = InferenceEngine(kb, cms, strategy=strategy).ask_all(goal)
        per_ask.append((solutions, cms.metrics.get(IE_INFERENCE_STEPS), cms.clock.now))
    return per_ask, log, engine


def check_memoising_matches_one_graph_per_ask(world, strategy, goals):
    memo, memo_log, engine = run(world, strategy, goals, memoising=True)
    reference, reference_log, _ = run(world, strategy, goals, memoising=False)
    for goal, got, want in zip(goals, memo, reference):
        assert got == want, f"{goal}: {got} != {want}"
    assert memo_log == reference_log
    return engine


def memoised(engine: InferenceEngine, goal: Atom) -> bool:
    config = specifier_config_for(engine.strategy)
    return engine.templates.graph_for(goal, config, engine.cms.statistics_of).memoised


@st.composite
def sessions(draw):
    world = draw(st.sampled_from(sorted(WORLDS)))
    _build, kinds, constants = WORLDS[world]
    asks = draw(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(kinds)),
                st.sampled_from(constants),
                st.sampled_from(constants),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return world, [(kind, goal_of(kind, a, b)) for kind, a, b in asks]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(STRATEGIES), sessions())
def test_the_memoising_engine_is_one_graph_per_ask(strategy, session):
    world, asks = session
    goals = [goal for _kind, goal in asks]
    engine = check_memoising_matches_one_graph_per_ask(world, strategy, goals)
    kinds = WORLDS[world][1]
    for kind, goal in asks:
        assert memoised(engine, goal) is kinds[kind], goal


# -- hand cases ------------------------------------------------------------------------


def check_two_constants_bind_in_argument_order():
    kb, cms = genealogy_system()
    engine = InferenceEngine(kb, cms, strategy="conjunction")
    root, child = PEOPLE[0], PEOPLE[2]  # the first root's first child
    assert engine.ask_first(f"ancestor({root}, {child})") == {}
    assert engine.ask_first(f"ancestor({child}, {root})") is None


def check_nested_activations_keep_their_own_scope():
    goals = [parse_atom(f"ancestor({person}, W)") for person in PEOPLE[:4]]
    check_memoising_matches_one_graph_per_ask("genealogy", "interpreted", goals)


def check_a_head_constant_clash_is_not_memoised():
    goals = [parse_atom("p(1, W)"), parse_atom("p(2, W)"), parse_atom("p(1, W)")]
    engine = check_memoising_matches_one_graph_per_ask("fallback", "conjunction", goals)
    assert [sorted(s["W"] for s in engine.ask_all(goal)) for goal in goals] == [
        [2, 3, 3, 4, 5], [4, 5], [2, 3, 3, 4, 5]
    ]
    assert not memoised(engine, goals[0])


def test_two_constants_bind_in_argument_order():
    check_two_constants_bind_in_argument_order()


def test_nested_activations_keep_their_own_scope():
    check_nested_activations_keep_their_own_scope()


def test_a_head_constant_clash_is_not_memoised():
    check_a_head_constant_clash_is_not_memoised()


# -- epochs ---------------------------------------------------------------------------


class TestEpoch:
    """What the knowledge base says after an ask is what the next ask builds."""

    def ask(self, engine, goal):
        return sorted(tuple(sorted(s.items())) for s in engine.ask_all(goal))

    def test_a_new_clause(self):
        kb, cms = genealogy_system()
        engine = InferenceEngine(kb, cms)
        person = PEOPLE[0]
        before = self.ask(engine, f"grandparent({person}, W)")
        kb.add_rules("grandparent(X, Z) :- parent(X, Z).")
        after = self.ask(engine, f"grandparent({person}, W)")
        assert len(engine.last_graph.alternatives) == 2
        assert set(before) < set(after)

    def test_a_new_database_declaration(self):
        server = RemoteDBMS()
        server.load_table(relation_from_columns("e", **FALLBACK_TABLES["e"]))
        server.load_table(relation_from_columns("g", a=[1], b=[9]))
        kb = KnowledgeBase()
        kb.declare_database("e", 2)
        kb.add_rules("kin(X, Y) :- e(X, Y).\nkin(X, Y) :- g(X, Y).")
        engine = InferenceEngine(kb, CacheManagementSystem(server))
        assert self.ask(engine, "kin(1, W)") == [(("W", 2),), (("W", 3),)]
        kb.declare_database("g", 2)
        assert self.ask(engine, "kin(1, W)") == [(("W", 2),), (("W", 3),), (("W", 9),)]

    def test_a_new_soa(self):
        kb, cms = genealogy_system()
        kb.add_rules("odd(X) :- male(X), age(X, 3).\nodd(X) :- parent(X, X).")
        engine = InferenceEngine(kb, cms)
        engine.ask_all(f"odd({PEOPLE[0]})")
        assert len(engine.last_graph.alternatives) == 2
        kb.add_soa(MutualExclusion((parse_atom("male(X)"), parse_atom("age(X, 3)"))))
        engine.ask_all(f"odd({PEOPLE[0]})")
        assert len(engine.last_graph.alternatives) == 1
