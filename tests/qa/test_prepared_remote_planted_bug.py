"""Acceptance: planted bugs in prepared remote requests are caught.

A miss is translated once per request shape per link (``SQLTemplate``),
priced only when something reads the price (``QueryPlan.remote_estimate``),
and its shipped rows are adopted, not deduplicated, by a projection that
keeps every column of a distinct input (``operators.project_entries``).
Three mutants, one per mechanism:

* ``stale_literal`` — a template keeps the first ask's constants, so a
  later ask of the shape ships the first ask's conditions;
* ``adopt_on_drop`` — adoption also when an entry drops a column, so a
  projection that merges rows keeps the duplicates;
* ``unpriced_hybrid`` — a hybrid plan defers its price too, and the price
  it reads is 0.

The first two change answers: the differential fuzzer's healthy corpus
kills each (``stale_literal`` also trips the link's
``check_invariants``, which the runner audits after every query,
``adopt_on_drop`` the relation invariants it checks every answer with).  No fuzz profile reads a plan's estimate, so ``unpriced_hybrid``
is killed by the hand case alone.
"""

from dataclasses import replace

import pytest

import repro.caql.translate as translate
import repro.core.plan as plan_module
import repro.core.planner as planner_module
import repro.core.rdi as rdi_module
import repro.core.subsumption as subsumption
import repro.relational.operators as operators
from repro.common.errors import InvariantViolation
from repro.core.rdi import RemoteInterface
from repro.qa import CaseConfig, CaseGenerator, case_failure
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from tests.core.test_prepared_remote import TestDeferredEstimates, make_psj, make_server

CORPUS = 40  # well inside the CI smoke's 150 healthy cases

real_bind = translate.SQLTemplate.bind
real_project_entries = operators.project_entries
real_assemble = planner_module.QueryPlanner._assemble


def _stale_literal():
    """A ``bind`` whose template remembers its first ask and binds that
    ask's WHERE conditions into every later one."""
    first_asks = {}  # id(template) -> (template, its first psj)

    def bind(template, psj, in_lists):
        first = first_asks.setdefault(id(template), (template, psj))[1]
        bound = real_bind(template, psj, in_lists)
        stale = real_bind(template, first, in_lists)
        count = len(psj.conditions)
        where = stale.query.where[:count] + bound.query.where[count:]
        return replace(bound, query=replace(bound.query, where=where))

    return bind


def _adopt_on_drop(rows, entries, schema):
    """Adoption whenever a distinct input is cut by columns alone."""
    if type(rows) is Relation and entries and all(kind == "col" for kind, _ in entries):
        return Relation.from_distinct_rows(schema, list(operators.entry_rows(rows, entries)))
    return real_project_entries(rows, entries, schema)


def _unpriced_hybrid(planner, query, chosen, notes):
    plan = real_assemble(planner, query, chosen, notes)
    if plan.strategy == "hybrid":
        plan.remote_estimate = lambda: 0.0
    return plan


def _plant(name, monkeypatch):
    if name == "stale_literal":
        monkeypatch.setattr(translate.SQLTemplate, "bind", _stale_literal())
    elif name == "adopt_on_drop":
        for module in (operators, translate, rdi_module, subsumption, plan_module):
            monkeypatch.setattr(module, "project_entries", _adopt_on_drop)
    else:
        monkeypatch.setattr(planner_module.QueryPlanner, "_assemble", _unpriced_hybrid)


@pytest.fixture(params=["stale_literal", "adopt_on_drop", "unpriced_hybrid"])
def planted_bug(request, monkeypatch):
    _plant(request.param, monkeypatch)
    return request.param


def _kill(case) -> str | None:
    """How ``case`` fails under the mutant, None when it passes."""
    try:
        return case_failure(case)
    except Exception as error:  # an audit or invariant out of the stack
        return f"{type(error).__name__}: {error}"


def _hand_case(planted_bug):
    """Each mutant's own hand case; raises AssertionError (or the audit's
    InvariantViolation) under it."""
    if planted_bug == "stale_literal":
        rdi = RemoteInterface(make_server())
        rdi.fetch(make_psj("q(I) :- emp(I, a, P)"))
        answer = rdi.fetch(make_psj("q(I) :- emp(I, b, P)"))
        rdi.check_invariants()  # the audit sees it before the answer does
        assert sorted(answer) == [(2,)]
    elif planted_bug == "adopt_on_drop":
        relation = Relation(Schema("r", ("a", "b")), [(1, 2), (1, 3)])
        out = operators.project_entries(relation, [("col", 0)], Schema("p", ("a",)))
        assert out.rows == [(1,)]
    else:
        TestDeferredEstimates().test_a_hybrid_plan_is_priced_at_plan_time()


class TestPlantedPreparedRemoteBugIsCaught:
    def test_caught_by_a_hand_case(self, planted_bug):
        with pytest.raises((AssertionError, InvariantViolation)):
            _hand_case(planted_bug)

    @pytest.mark.parametrize("answer_bug", ["stale_literal", "adopt_on_drop"])
    def test_killed_on_the_healthy_corpus(self, answer_bug, monkeypatch):
        _plant(answer_bug, monkeypatch)
        for case in CaseGenerator(0, CaseConfig()).corpus(CORPUS):
            if _kill(case) is not None:
                return
        pytest.fail(f"planted {answer_bug} escaped the healthy corpus")

    def test_clean_again_once_the_bug_is_fixed(self, planted_bug, monkeypatch):
        monkeypatch.undo()
        _hand_case(planted_bug)
        for case in CaseGenerator(0, CaseConfig()).corpus(5):
            assert case_failure(case) is None
