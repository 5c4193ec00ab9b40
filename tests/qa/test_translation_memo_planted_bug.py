"""Acceptance: the shape table in front of ``_translate`` answers like a
fresh parse, and a planted bug in it is caught.

``core_plan`` translates a query once per shape — its skeleton, read
with the builtin registry's signatures, because which literals are
evaluable is the one thing the split reads from the registry — and a
re-asked object carries its translation under those signatures.  The
mutant, ``signature_blind``, reads the signatures as they were when
nothing was registered, so a builtin registered after an object's second
ask is never split off: the object, and every query of its shape, keeps
being answered as a join with a remote table of the same name.  The
differential fuzzer cannot see it (its cases register no builtins), so
it is killed here twice: by a re-ask that must answer like a fresh
parse, and by the property that ``core_plan`` — its PSJ and the
canonical form the PSJ carries — equals a from-scratch translation and
canonicalization over the ``CaseGenerator`` corpus, with and without an
extra builtin.

The oracle (``evaluate_conjunctive``) translates from scratch, so a wrong
entry corrupts the CMS but not the answer it is compared with.
"""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.caql.eval as eval_module
import repro.core.cms as cms_module
from repro.caql.ast import COMPARISON_PREDS
from repro.caql.eval import evaluate_conjunctive
from repro.caql.parser import parse_query
from repro.common.errors import BraidError
from repro.core.canonical import audit_canonical, canonicalize
from repro.core.cms import CacheManagementSystem
from repro.logic.builtins import BuiltinRegistry
from repro.logic.terms import Const, Var
from repro.qa import CaseConfig, CaseGenerator
from repro.relational.relation import relation_from_columns
from repro.remote.server import RemoteDBMS

real_core_plan = eval_module.core_plan
real_translate = eval_module._translate

QUERY = "q(X, Y) :- b0(X, Z), double(Z, Y)"


@pytest.fixture(autouse=True)
def cold_table():
    eval_module._shapes.clear()
    yield
    eval_module._shapes.clear()


class _Unregistered:
    """A registry as ``signature_blind`` sees it: live evaluators, but the
    signatures of a registry nothing was ever registered in."""

    signatures = BuiltinRegistry().signatures

    def __init__(self, registry):
        self._registry = registry

    def __getattr__(self, name):
        return getattr(self._registry, name)


def signature_blind(query, registry):
    """``core_plan`` whose carry and shape key never see a registration."""
    return real_core_plan(query, _Unregistered(registry))


def plant(query, registry, translation):
    """Carry ``translation`` on ``query``, as a second ask leaves it."""
    vars(query)["_core"] = (registry.signatures, translation)


def _signature_blind(monkeypatch):
    for module in (eval_module, cms_module):
        monkeypatch.setattr(module, "core_plan", signature_blind)


def double(atom, subst):
    """``double(A, B)``: ``B`` is twice ``A``."""
    value = 2 * subst.apply_term(atom.args[0]).value
    out = subst.apply_term(atom.args[1])
    if isinstance(out, Var):
        yield subst.bind(out, Const(value))
    elif out.value == value:
        yield subst


def tables():
    return {
        "b0": relation_from_columns("b0", a=[1, 2, 3], b=[10, 20, 30]),
        # A remote ``double`` that disagrees with the builtin on every row.
        "double": relation_from_columns("double", a=[10, 20], b=[99, 98]),
    }


def make_cms():
    remote = RemoteDBMS()
    for relation in tables().values():
        remote.load_table(relation)
    cms = CacheManagementSystem(remote)
    cms.begin_session()
    return cms


def reask_after_registering():
    """The answer of a re-ask after ``double/2`` became a builtin, and a
    fresh parse's."""
    cms = make_cms()
    query = parse_query(QUERY)
    for _ in range(2):  # the second ask keeps the translation
        assert sorted(cms.query(query).fetch_all()) == [(1, 99), (2, 98)]
    cms.builtins.register("double", 2, double)
    return cms.query(query).fetch_all(), cms.query(parse_query(QUERY)).fetch_all()


# -- the property ----------------------------------------------------------------------

CORPUS = [
    text
    for case in CaseGenerator(0, CaseConfig()).corpus(30)
    for text in case.queries + case.advice_views
]


def outcome(translate, query, registry):
    """``translate``'s result and its PSJ's canonical key, or the type of
    the error it raised.  The key is checked against a from-scratch build
    (:func:`audit_canonical`: key and fold), so a carried form that is
    not the PSJ's own raises."""
    try:
        psj, core_vars, evaluable = translate(query, registry)
    except BraidError as error:
        return type(error)
    audit_canonical(psj)
    return psj, psj.var_columns, core_vars, evaluable, canonicalize(psj).key


def check_memo_matches_fresh(query, asks, extra):
    """``asks`` asks of ``query``, then ``asks`` more after registering the
    signature ``extra`` (if any) as a builtin: each must equal a
    from-scratch translation."""
    registry = BuiltinRegistry()
    for _ in range(asks):
        assert outcome(eval_module.core_plan, query, registry) == outcome(
            real_translate, query, registry
        ), f"planned translation of {query} is not a fresh one's"
    if extra is not None:
        registry.register(*extra, double)
    for _ in range(asks):
        assert outcome(eval_module.core_plan, query, registry) == outcome(
            real_translate, query, registry
        ), f"planned translation of {query} is not a fresh one's after registering {extra}"


@st.composite
def memo_cases(draw):
    query = parse_query(draw(st.sampled_from(CORPUS)))
    signatures = [
        literal.signature
        for literal in query.literals
        if literal.pred not in COMPARISON_PREDS and not literal.negated
    ]
    extra = draw(st.none() | st.sampled_from(signatures))
    return query, draw(st.integers(1, 3)), extra


# -- the tests -------------------------------------------------------------------------


class TestRegisteredAfterTheSecondAsk:
    def test_reask_is_re_split_and_answers_like_a_fresh_parse(self):
        reask, fresh = reask_after_registering()
        assert sorted(fresh) == [(1, 20), (2, 40), (3, 60)]
        assert reask == fresh

    def test_killed_signature_blind(self, monkeypatch):
        _signature_blind(monkeypatch)
        reask, fresh = reask_after_registering()
        # Still the join: the re-asked object, and a fresh parse too, whose
        # shape finds the plan built before ``double/2`` was registered.
        assert sorted(reask) == sorted(fresh) == [(1, 99), (2, 98)]


class TestTheOracleTranslatesFromScratch:
    def test_a_wrong_entry_misleads_the_cms_not_the_oracle(self):
        database = tables()
        query = parse_query("q(X, Y) :- b0(X, Y), X > 1")
        wrong = parse_query("q(X, Y) :- b0(X, Y), X > 2")
        registry = BuiltinRegistry()
        truth = sorted(evaluate_conjunctive(query, database.__getitem__).rows)
        assert truth == [(2, 20), (3, 30)]

        plant(query, registry, eval_module._translate(wrong, registry))
        cms = make_cms()
        assert cms.query(query).fetch_all() == [(3, 30)]  # the CMS reads it
        oracle = evaluate_conjunctive(query, database.__getitem__, registry)
        assert sorted(oracle.rows) == truth

    def test_the_evaluable_branch_too(self):
        database = tables()
        registry = BuiltinRegistry()
        registry.register("double", 2, double)
        query = parse_query(QUERY)
        truth = sorted(evaluate_conjunctive(query, database.__getitem__, registry).rows)
        plain = eval_module._translate(parse_query(QUERY), BuiltinRegistry())
        plant(query, registry, plain)
        assert eval_module.core_plan(query, registry) is plain
        oracle = evaluate_conjunctive(query, database.__getitem__, registry)
        assert sorted(oracle.rows) == truth == [(1, 20), (2, 40), (3, 60)]


PROPERTY = settings(
    max_examples=200,
    deadline=None,
    database=None,
    derandomize=True,
    phases=(Phase.generate, Phase.shrink),
)


@PROPERTY
@given(memo_cases())
def test_memoised_core_plan_equals_a_fresh_translation(case):
    # "Memoised" is the shape table now: every ask of a planned shape binds.
    check_memo_matches_fresh(*case)


def test_the_property_kills_signature_blind(monkeypatch):
    _signature_blind(monkeypatch)

    @PROPERTY
    @given(memo_cases())
    def memo_matches_fresh(case):
        check_memo_matches_fresh(*case)

    with pytest.raises(AssertionError, match="is not a fresh one's after registering"):
        memo_matches_fresh()
