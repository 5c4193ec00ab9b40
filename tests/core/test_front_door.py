"""The front door derives once and carries: counts, not timings.

Every op pays text -> PSJ -> canonical key -> exact lookup, so what these
tests pin is *how often* each step runs, counted by wrapping the module
attributes the steps are reached through: one translation per query
shape, one shape-plan bind per fresh query object and none for a re-asked
one, no cold build for a query whose shape was seen under other variable
names and constants, and a carried form that never leaks to a different
value.  Answers are the oracle's business (``tests/qa``); only the last
class here looks at them.
"""

import sys
from dataclasses import fields, replace

import pytest

import repro.caql.eval as eval_module
import repro.caql.psj as psj_module
import repro.core.canonical as canonical
import repro.core.cms as cms_module
import repro.core.planner as planner_module
from repro.braid import BraidSystem
from repro.caql.eval import core_plan, psj_of, result_schema
from repro.caql.parser import parse_query
from repro.caql.psj import ConstProj, PSJQuery, psj_from_literals
from repro.common.errors import InvariantViolation
from repro.common.metrics import CACHE_HITS_CANONICAL, CACHE_HITS_EXACT
from repro.core.cache import Cache
from repro.core.canonical import canonical_key, canonicalize
from repro.core.cms import CacheManagementSystem
from repro.core.plan import _filtered_sub_query, sub_query
from repro.logic.builtins import BuiltinRegistry
from repro.logic.terms import Const
from repro.qa import CaseConfig, CaseGenerator
from repro.relational.expressions import SHAPE_BOUND, Col, Comparison, Lit
from repro.relational.relation import Relation, relation_from_columns
from repro.remote.server import RemoteDBMS
from repro.workloads import genealogy


class Counter:
    """Wraps a callable; ``calls`` is how often it was entered."""

    def __init__(self, function):
        self.function = function
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.function(*args, **kwargs)


def count(monkeypatch, *sites):
    """One shared counter over every ``(module, attribute)`` binding of a
    function (import-site bindings are what the callers resolve)."""
    counter = Counter(getattr(*sites[0]))
    for module, attribute in sites:
        monkeypatch.setattr(module, attribute, counter)
    return counter


def count_binds(monkeypatch):
    """A counter over ``ShapePlan.bind``: one per query bound from a plan."""
    counter = Counter(eval_module.ShapePlan.bind)
    monkeypatch.setattr(
        eval_module.ShapePlan, "bind", lambda plan, *args: counter(plan, *args)
    )
    return counter


@pytest.fixture(autouse=True)
def cold_shapes():
    eval_module._shapes.clear()
    yield
    eval_module._shapes.clear()


def psj(text: str) -> PSJQuery:
    return psj_of(parse_query(text))


class TestWarmedExactHit:
    def test_one_translation_one_memo_lookup_no_build(self, monkeypatch):
        remote = RemoteDBMS()
        remote.load_table(
            relation_from_columns("b0", a=[1, 2, 3, 4], b=[10, 20, 30, 40])
        )
        cms = CacheManagementSystem(remote)
        cms.begin_session()
        text = "d0(X, Y) :- b0(X, Y), X > 1, Y < 40"
        cms.query(parse_query(text)).fetch_all()  # the miss that stores it
        warm = cms.query(parse_query(text)).fetch_all()  # its first hit

        translations = count(
            monkeypatch,
            (eval_module, "psj_from_literals"),
            (cms_module, "psj_from_literals"),
        )
        builds = count(monkeypatch, (canonical, "_build"))
        binds = count_binds(monkeypatch)
        renders = count(monkeypatch, (psj_module, "_structural_key"))

        hits = cms.metrics.get(CACHE_HITS_EXACT)
        stream = cms.query(parse_query(text))
        assert cms.metrics.get(CACHE_HITS_EXACT) == hits + 1
        assert cms.last_plan is None  # an exact hit is read, never planned
        assert stream.fetch_all() == warm
        # The shape was translated once, by the miss; this ask binds it.
        assert translations.calls == 0
        assert len(eval_module._shapes) == 1
        assert builds.calls == 0
        assert binds.calls == 1
        # The stored definition rendered its structural key on its first
        # hit; from then on only the fresh query renders one.
        assert renders.calls == 1


class TestCanonicalHit:
    """A variant spelling is told from the stored one by its shape when it
    can be: only a query alike in relations, condition count and
    projection length renders its structural key."""

    TEXT = "d0(X, Y) :- b0(X, Y), X > 1, Y < 40"

    def _warm(self):
        remote = RemoteDBMS()
        remote.load_table(
            relation_from_columns("b0", a=[1, 2, 3, 4], b=[10, 20, 30, 40])
        )
        cms = CacheManagementSystem(remote)
        cms.begin_session()
        rows = cms.query(parse_query(self.TEXT)).fetch_all()
        return cms, rows

    def _ask(self, monkeypatch, cms, text):
        renders = count(monkeypatch, (psj_module, "_structural_key"))
        hits = cms.metrics.get(CACHE_HITS_CANONICAL)
        rows = cms.query(parse_query(text)).fetch_all()
        assert cms.metrics.get(CACHE_HITS_CANONICAL) == hits + 1
        return rows, renders.calls

    def test_a_spelling_with_a_condition_more_renders_no_structural_key(
        self, monkeypatch
    ):
        cms, warm = self._warm()
        rows, renders = self._ask(
            monkeypatch, cms, "e(B, A) :- A < 50, b0(B, A), A < 40, B > 1"
        )
        assert rows == warm
        assert renders == 0

    def test_a_spelling_alike_in_shape_renders_it(self, monkeypatch):
        cms, warm = self._warm()
        rows, renders = self._ask(
            monkeypatch, cms, "e(B, A) :- b0(B, A), A < 40.0, B > 1"
        )
        assert rows == warm
        # The query's key, and the stored definition's on its first test.
        assert renders == 2


class TestGeneralizedViewTranslatedOnce:
    """``generalization_of`` runs once per prefetch candidate per query,
    over a handful of view definitions: each is translated once and its
    PSJ carried on the definition, which changes no counter."""

    GOALS = (
        "ancestor(p0, W)",
        "grandparent(p3, W)",
        "sibling(p5, S)",
        "uncle(U, p7)",
        "cousin(p9, Y)",
        "ancestor(p2, W)",
        "cousin(p1, Y)",
    )

    def _session(self, monkeypatch, from_scratch: bool):
        real = planner_module.QueryPlanner.generalization_of
        asked: list[int] = []

        def generalization_of(planner, view_name):
            view = planner.advice.view(view_name)
            if view is not None:
                asked.append(id(view.definition))
                if from_scratch:
                    view.definition.__dict__.pop("_general", None)
            return real(planner, view_name)

        monkeypatch.setattr(
            planner_module.QueryPlanner, "generalization_of", generalization_of
        )
        translations = count(monkeypatch, (planner_module, "_generalized"))
        system = BraidSystem.from_workload(genealogy())
        answers = [system.ask_all(goal) for goal in self.GOALS]
        return answers, system.metrics.snapshot(), asked, translations.calls

    def test_once_per_definition_and_every_counter_unmoved(self, monkeypatch):
        answers, counters, asked, translations = self._session(monkeypatch, False)
        assert len(asked) > len(set(asked)) > 0
        assert translations <= len(set(asked))
        with monkeypatch.context() as scratch:
            reference = self._session(scratch, True)
        assert reference[3] == len(reference[2])  # one translation per call
        assert (answers, counters) == reference[:2]


class TestReaskedQueryObject:
    """The IE re-asks one parsed object: it carries its translation from
    the second ask on, so the PSJ and what it carries are reused."""

    def test_ten_reasks_translate_once(self, monkeypatch):
        remote = RemoteDBMS()
        remote.load_table(
            relation_from_columns("b0", a=[1, 2, 3, 4], b=[10, 20, 30, 40])
        )
        cms = CacheManagementSystem(remote)
        cms.begin_session()
        query = parse_query("d0(X, Y) :- b0(X, Y), X > 1, Y < 40")
        first = cms.query(query).fetch_all()  # the miss that stores it

        translations = count(
            monkeypatch,
            (eval_module, "psj_from_literals"),
            (cms_module, "psj_from_literals"),
        )
        skeletons = count(monkeypatch, (eval_module, "_skeleton"))
        binds = count_binds(monkeypatch)
        renders = count(monkeypatch, (psj_module, "_structural_key"))
        hits = cms.metrics.get(CACHE_HITS_EXACT)
        for _ in range(10):
            assert cms.query(query).fetch_all() == first
            assert cms.last_plan is None  # an exact hit is read, never planned
        assert cms.metrics.get(CACHE_HITS_EXACT) == hits + 10
        # The first ask only marked the object (a one-shot query keeps no
        # PSJ alive); the second bound the shape's plan — translated by
        # the first — and the object carries it for the rest.
        assert translations.calls == 0
        assert skeletons.calls == binds.calls == 1
        # The kept PSJ renders its key once, the stored element its own once.
        assert renders.calls <= 2
        assert core_plan(query, cms.builtins)[0] is core_plan(query, cms.builtins)[0]

    def test_one_shot_queries_leave_at_most_the_bound(self):
        registry = BuiltinRegistry()
        bound = SHAPE_BOUND
        # Each query its own shape: the relation names differ.
        queries = [
            parse_query(f"d{i}(X) :- b{i}(X, Y), Y > {i}") for i in range(2 * bound)
        ]
        for query in queries:
            core_plan(query, registry)
        assert len(eval_module._shapes) == bound  # first in, first out
        # A first ask leaves a mark, not its PSJ.
        assert all(vars(query)["_core"][1] is None for query in queries)
        for query in queries[-3:]:
            kept = core_plan(query, registry)
            assert vars(query)["_core"][1] is kept
            assert core_plan(query, registry) is kept
        # The table holds no query: plans are built from templates.
        for plan in eval_module._shapes.values():
            assert all(
                not isinstance(value, type(queries[0]))
                for value in (getattr(plan, name) for name in type(plan).__slots__)
            )


class TestReaskUnderFreshVariableNames:
    def test_genealogy_reask_builds_nothing(self, monkeypatch):
        system = BraidSystem.from_workload(genealogy())
        translations = count(monkeypatch, (eval_module, "_translate"))
        asked: list = []  # every definition the cache keyed by a built form
        real_build = canonical._build

        def build(occurrences, conditions, projection, unsatisfiable):
            asked.append(sys._getframe(3).f_locals.get("definition", None))
            return real_build(occurrences, conditions, projection, unsatisfiable)

        monkeypatch.setattr(canonical, "_build", build)
        first = system.ask_all("ancestor(p0, W)")
        cold = translations.calls
        assert 0 < cold <= 18
        built = len(asked)
        # The IE renames apart on every resolution step, so the re-ask's
        # CAQL queries differ from the first ask's in variable names only:
        # every one binds a plan its shape already has — a prefetch's
        # generalized view too, though the re-ask's view definitions are
        # fresh objects.
        again = system.ask_all("ancestor(p0, W)")
        assert translations.calls == cold
        assert asked[built:] == []
        assert again == first

    def test_name_and_variable_names_are_not_in_the_memo_key(self, monkeypatch):
        builds = count(monkeypatch, (canonical, "_build"))
        translations = count(monkeypatch, (eval_module, "_translate"))
        one = psj("d0(X, Y) :- b0(X, Z), b1(Z, Y), X > 2")
        other = psj("view9(U, W) :- b0(U, V), b1(V, W), U > 5")
        assert one != other and one.var_columns != other.var_columns
        assert canonical_key(one) != canonical_key(other)
        again = psj("view9(U, W) :- b0(U, V), b1(V, W), U > 2")
        assert canonical_key(one) == canonical_key(again)
        # One shape: translated once, and no form built from scratch.
        assert translations.calls == 1 and len(eval_module._shapes) == 1
        assert builds.calls == 0


class TestTheCarryNeverCrossesValues:
    def test_replace_and_sub_query_start_uncarried(self):
        query = psj("d0(X, Y) :- b0(X, Z), b1(Z, Y), X > 2")
        form, structural = canonicalize(query), query.canonical_key()
        assert canonicalize(query) is form  # the same object: a dict probe
        assert query.canonical_key() is structural

        tighter = replace(
            query,
            conditions=query.conditions + (Comparison(Col("t0.c0"), "<", Lit(9)),),
        )
        part = sub_query(query, frozenset({"t0"}), "d0__part")
        for derived in (tighter, part):
            assert vars(derived).keys() == {f.name for f in fields(PSJQuery)}
            assert canonicalize(derived).key != form.key
            assert derived.canonical_key() != structural
        # The whole query under another name (a one-backend remote part)
        # reads nothing of what differs, so it carries the query's form.
        whole = sub_query(query, frozenset({"t0", "t1"}), "d0__rest")
        assert canonicalize(whole) is form
        canonical.audit_canonical(whole)
        # ... and the carried form is invisible to value semantics.
        assert query == psj("d0(X, Y) :- b0(X, Z), b1(Z, Y), X > 2")
        assert hash(query) == hash(psj("d0(X, Y) :- b0(X, Z), b1(Z, Y), X > 2"))
        assert "_canonical" not in repr(query)

    def test_spellings_still_get_their_own_rows(self, monkeypatch):
        builds = count(monkeypatch, (canonical, "_build"))
        base = psj("d0(X) :- b0(X, Y)")
        one = replace(base, projection=(ConstProj(1),) + base.projection)
        one_f = replace(base, projection=(ConstProj(1.0),) + base.projection)
        assert one == one_f  # ==-equal, so only the spelling tells them apart
        assert canonical_key(one) != canonical_key(one_f)
        assert builds.calls == 2

        pinned = replace(base, conditions=(Comparison(Col("t0.c0"), "=", Lit(1)),))
        pinned_f = replace(base, conditions=(Comparison(Col("t0.c0"), "=", Lit(1.0)),))
        assert pinned == pinned_f
        assert canonical_key(pinned) == canonical_key(pinned_f)
        assert builds.calls == 4

    def test_unhashable_constant_takes_the_fallback(self, monkeypatch):
        builds = count(monkeypatch, (canonical, "_build"))
        base = psj("d0(X) :- b0(X, Y)")
        listed = replace(
            base, conditions=(Comparison(Col("t0.c0"), "=", Lit([1, 2])),)
        )
        form = canonicalize(listed)
        assert "t0.c0 = list![1, 2]" in form.key[2]
        assert canonicalize(listed) is form  # carried all the same
        assert builds.calls == 1
        # Nothing in a shape plan hashes a constant: a CAQL query with an
        # unhashable one binds like any other.
        registry = BuiltinRegistry()
        query = parse_query("d0(X) :- b0(X, Y), Y = 1")
        query = replace(
            query,
            literals=query.literals[:1]
            + (replace(query.literals[1], args=(query.literals[1].args[0], Const([1, 2]))),),
        )
        bound = core_plan(query, registry)[0]
        assert bound == eval_module._translate(query, registry)[0]
        assert canonical.audit_canonical(bound) == canonicalize(bound).key


class TestTheWholeComponentShortcut:
    """A component over every occurrence (a remote-only plan's) is built
    without testing a column against a tag; it is the component the
    filtered build gives, down to the canonical key."""

    def test_it_is_the_filtered_build_on_every_fuzz_query(self):
        registry = BuiltinRegistry()
        # The generator pins no answer constant and repeats no answer
        # column; these two do.
        texts = ["q(X, 3, C, X) :- b2(X, Y), b3(Y, C), Y > 1", "q(7) :- b2(X, X)"]
        for config in (CaseConfig(), CaseConfig.federated(), CaseConfig.variants()):
            for case in CaseGenerator(0, config).corpus(30):
                texts += case.queries + case.advice_views
        seen = 0
        for text in texts:
            query = core_plan(parse_query(text), registry)[0]
            if not query.occurrences:
                continue
            tags = frozenset(o.tag for o in query.occurrences)
            canonicalize(query)  # carried by an equal component
            fast = sub_query(query, tags, f"{query.name}__rest")
            slow = _filtered_sub_query(query, tags, f"{query.name}__rest")
            assert fast == slow
            assert canonical_key(fast) == canonical_key(slow)
            seen += 1
        assert seen > 300


class TestTheAuditChecksTheCarriedFold:
    """Two alpha-equivalent spellings share a key but not a fold: the fold
    is over a query's own column names, and the probe asks it by name."""

    @staticmethod
    def spellings():
        one = psj("d0(X, Z) :- b0(X, Y), b0(Y, Z), X > 2")
        other = psj("d0(X, Z) :- b0(Y, Z), b0(X, Y), X > 2")  # tags swapped
        assert canonical_key(one) == canonical_key(other)
        assert one.conditions != other.conditions
        return one, other

    def test_a_fold_built_for_another_spelling_is_caught(self):
        one, other = self.spellings()
        assert canonical.audit_canonical(other) == canonical_key(one)
        # The same key, so a key-only audit would wave this through.
        vars(other)["_canonical"] = canonicalize(one)
        with pytest.raises(InvariantViolation, match="carried fold of d0"):
            canonical.audit_canonical(other)

    def test_a_redefined_element_is_checked_against_what_it_now_means(self):
        one, other = self.spellings()
        cache = Cache()
        rows = Relation(result_schema(one.name, one.arity))
        element = cache.store(one, rows)
        assert cache.store(other, rows) is element  # one key, one element
        element.definition = other  # redefined by hand: the cache never does
        cache.check_invariants()  # the adopted spelling carries its own fold
        vars(other)["_canonical"] = canonicalize(one)
        with pytest.raises(InvariantViolation, match="carried fold of d0"):
            cache.check_invariants()


class TestNothingElseChanged:
    def test_normalized_is_idempotent_and_returns_normal_conditions_as_is(self):
        for condition in (
            Comparison(Lit(3), "<", Col("t0.c0")),
            Comparison(Col("t1.c0"), ">=", Col("t0.c1")),
            Comparison(Col("t0.c0"), "=", Lit(3)),
            Comparison(Col("t0.c0"), "<=", Col("t0.c0")),
        ):
            normal = condition.normalized()
            assert normal.normalized() is normal
        swapped = Comparison(Lit(3), "<", Col("t0.c0")).normalized()
        assert swapped == Comparison(Col("t0.c0"), ">", Lit(3))

    def test_core_plan_is_the_translation_the_cms_used_to_redo(self):
        registry = BuiltinRegistry()
        seen = 0
        for case in CaseGenerator(0, CaseConfig()).corpus(40):
            for text in case.queries + case.advice_views:
                query = parse_query(text)
                translated, _core_vars, evaluable = core_plan(query, registry)
                assert not evaluable
                assert translated == psj_from_literals(
                    query.name,
                    query.relation_literals(),
                    query.comparison_literals(),
                    query.answers,
                )
                seen += 1
        assert seen > 200
