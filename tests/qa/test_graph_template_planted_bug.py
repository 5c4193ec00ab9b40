"""Acceptance: planted bugs in graph templates are caught, and where.

A goal shape's template (``repro.ie.template``) stands for every goal of
that shape only if an ask binds it right, a recursive re-expansion solves
it in a scope of its own, and a build that read a placeholder's value is
never kept.  Three mutants, one per thing that must hold:

* ``wrong_slot`` — the placeholders are bound in reverse argument order,
  so ``ancestor(a, b)`` is answered as ``ancestor(b, a)``.
* ``callers_scope`` — a recursive re-expansion is solved in its caller's
  substitution, so nested activations of one template (``ancestor(c, Y)``
  inside ``ancestor(d, Y)``) see each other's bindings.
* ``read_ignored`` — a placeholder compared with another value answers
  "unequal" instead of abandoning the build, so a head-constant clash is
  culled from the template and memoised for every constant.

Each is killed by a hand case and by the differential property suite of
``tests/ie/test_graph_templates.py``.  No fuzz profile drives the
inference engine, so none kills any of them (EXPERIMENTS.md, "Graph
templates").
"""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.logic.terms import Const, Substitution
from repro.ie.controller import DepthFirstController
from repro.ie.problem_graph import Placeholder
from repro.ie.template import GraphTemplate
from tests.ie import test_graph_templates as templates


def _wrong_slot(monkeypatch):
    def bind(self, goal):
        constants = [arg for arg in goal.args if isinstance(arg, Const)]
        return Substitution(zip(self.slots, reversed(constants)))

    monkeypatch.setattr(GraphTemplate, "bind", bind)


def _callers_scope(monkeypatch):
    def solve_template(self, template, goal, scope, subst, depth):
        shared = subst
        for variable, value in scope.items():
            shared = shared.bind(variable, value)
        goal_vars = dict.fromkeys(a for a in goal.args if not isinstance(a, Const))
        for variable, goal_var in zip(template.variables, goal_vars):
            shared = shared.bind(variable, goal_var)
        yield from self._solve_or(template.root, shared, depth)

    monkeypatch.setattr(DepthFirstController, "_solve_template", solve_template)


def _read_ignored(monkeypatch):
    monkeypatch.setattr(Placeholder, "__eq__", lambda self, other: self is other)


PINNED = dict(
    deadline=None,
    database=None,
    derandomize=True,
    # A kill needs one failing example, not a shrunk one.
    phases=(Phase.generate,),
    report_multiple_bugs=False,
)


def run_property_suite(examples: int) -> None:
    inner = templates.test_the_memoising_engine_is_one_graph_per_ask.hypothesis.inner_test
    strategies = (st.sampled_from(templates.STRATEGIES), templates.sessions())
    settings(max_examples=examples, **PINNED)(given(*strategies)(inner))()


@pytest.mark.parametrize(
    "plant, hand_case",
    [
        (_wrong_slot, templates.check_two_constants_bind_in_argument_order),
        (_callers_scope, templates.check_nested_activations_keep_their_own_scope),
        (_read_ignored, templates.check_a_head_constant_clash_is_not_memoised),
    ],
    ids=["wrong_slot", "callers_scope", "read_ignored"],
)
class TestPlantedTemplateBugs:
    def test_killed_by_the_hand_case(self, monkeypatch, plant, hand_case):
        hand_case()
        plant(monkeypatch)
        with pytest.raises(AssertionError):
            hand_case()

    def test_killed_by_the_property_suite(self, monkeypatch, plant, hand_case):
        plant(monkeypatch)
        with pytest.raises(AssertionError):
            run_property_suite(200)
