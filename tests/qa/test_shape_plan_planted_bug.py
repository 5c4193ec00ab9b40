"""Acceptance: a query shape is translated and folded once, and planted
bugs in its plan are caught.

``core_plan`` keys a plan on the query's skeleton (literals in order,
variables numbered by first occurrence, each constant a slot carrying its
comparability kind) and binds each ask's constants into it.  The count
case pins the saving: a thousand asks of one shape, every one with fresh
variable names and fresh constants, translate once and digest the fold's
classes once.  Then one mutant per thing a plan may get wrong:

* ``wrong_slot_order`` — the ask's constants are bound into the slots
  back to front;
* ``kind_blind_skeleton`` — the skeleton leaves the kinds out, so
  ``V >= 3`` and ``V >= 'a'`` share a plan, and the second folds its
  string in the first's numeric interval;
* ``first_order_kept`` — a shape in which a relation occurs twice keeps
  the occurrence order its first ask won, though which order wins
  depends on the constants.

Each is killed by a hand case that compares ``core_plan`` — its PSJ, and
the canonical key and fold the PSJ carries — with ``_translate`` and a
from-scratch canonicalization.  Which fuzz profile also kills each is
recorded in ROADMAP item 8.
"""

import pytest

import repro.caql.eval as eval_module
import repro.caql.implication as implication_module
import repro.core.canonical as canonical_module
from repro.caql.eval import core_plan
from repro.caql.parser import parse_query
from repro.common.errors import InvariantViolation
from repro.core.canonical import audit_canonical, canonicalize
from repro.logic.builtins import BuiltinRegistry
from repro.logic.terms import Var

REGISTRY = BuiltinRegistry()


@pytest.fixture(autouse=True)
def cold_shapes():
    eval_module._shapes.clear()
    yield
    eval_module._shapes.clear()


def check_planned(text: str) -> None:
    """``core_plan`` of a fresh parse of ``text`` is what translating and
    canonicalizing it from scratch gives."""
    query = parse_query(text)
    psj = core_plan(query, REGISTRY)[0]
    fresh = eval_module._translate(parse_query(text), REGISTRY)[0]
    assert psj == fresh and psj.var_columns == fresh.var_columns, text
    audit_canonical(psj)  # raises when the carried key or fold is not its own


# -- the count case --------------------------------------------------------------------


class Counter:
    def __init__(self, function):
        self.function = function
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.function(*args, **kwargs)


def test_a_thousand_asks_of_one_shape_translate_and_plan_once(monkeypatch):
    translations = Counter(eval_module._translate)
    monkeypatch.setattr(eval_module, "_translate", translations)
    class_plans = Counter(implication_module.FoldPlan.__init__)
    monkeypatch.setattr(
        implication_module.FoldPlan,
        "__init__",
        lambda plan, conditions: class_plans(plan, conditions),
    )
    keys = set()
    for n in range(1000):
        x, y, z = f"X{n}", f"Y{n}", f"Z{n}"
        query = parse_query(
            f"d{n}({x}, {z}) :- item({x}, cat{n % 7}, {y}), {y} >= {n}, "
            f"ord({x}, {z}), {y} < {n + 50.5}"
        )
        psj = core_plan(query, REGISTRY)[0]
        keys.add(canonicalize(psj).key)
        if n % 100 == 0:
            audit_canonical(psj)
    assert len(keys) == 1000  # every ask its own key
    assert translations.calls == 1
    assert class_plans.calls == 1
    assert len(eval_module._shapes) == 1


# -- the hand cases ----------------------------------------------------------------------

SLOTS = (
    "q(X) :- b0(X, Y), X > 1, Y < 9",
    "q(X) :- b0(X, Y), X > 9, Y < 1",
)
KINDS = (
    "q(X) :- b0(X, V), V >= 3, V >= 5",
    "q(X) :- b0(X, V), V >= 3, V >= 'a'",
)
#: One shape, a relation twice: the constants decide which occurrence the
#: key names ``t0``.
SELF_JOIN = (
    "q(X) :- b0(X, 1), b0(X, 2)",
    "q(X) :- b0(X, 2), b0(X, 1)",
)


def check_the_slots_keep_their_order():
    for text in SLOTS:
        check_planned(text)


def check_the_kinds_keep_their_plans_apart():
    for text in KINDS:
        check_planned(text)


def check_a_self_join_ranks_its_orders_per_ask():
    for text in SELF_JOIN:
        check_planned(text)


class TestTheHandCasesPassOnTheRealCode:
    def test_slots(self):
        check_the_slots_keep_their_order()

    def test_kinds(self):
        check_the_kinds_keep_their_plans_apart()

    def test_self_join(self):
        check_a_self_join_ranks_its_orders_per_ask()


# -- the mutants -------------------------------------------------------------------------

real_skeleton = eval_module._skeleton
real_bind = canonical_module.FormPlan.bind


def _reversed_slots(query):
    skeleton, values, names = real_skeleton(query)
    return skeleton, values[::-1], names


def _kind_blind_skeleton(query):
    """:func:`repro.caql.eval._skeleton` with every constant one kind."""
    numbers: dict[str, int] = {}
    values: list = []
    parts: list = [len(query.literals)]
    for literal in query.literals:
        parts += (literal.pred, ~literal.arity if literal.negated else literal.arity)
        for arg in literal.args:
            if type(arg) is Var:
                parts.append(numbers.setdefault(arg.name, len(numbers)))
            else:
                values.append(arg.value)
                parts.append("constant")
    for arg in query.answers:
        if type(arg) is Var:
            parts.append(numbers[arg.name])
        else:
            values.append(arg.value)
            parts.append("constant")
    return tuple(parts), values, list(numbers)


def _first_order_kept(plan, values, projection, unsatisfiable):
    """``FormPlan.bind`` that, once a shape's first ask has ranked its
    candidate orders, keeps only the order that won."""
    form = real_bind(plan, values, projection, unsatisfiable)
    if plan.candidates is not None and not form.unsatisfiable:
        plan.candidates = [c for c in plan.candidates if c[0] == form._order]
    return form


@pytest.fixture
def wrong_slot_order(monkeypatch):
    monkeypatch.setattr(eval_module, "_skeleton", _reversed_slots)


@pytest.fixture
def kind_blind_skeleton(monkeypatch):
    monkeypatch.setattr(eval_module, "_skeleton", _kind_blind_skeleton)


@pytest.fixture
def first_order_kept(monkeypatch):
    monkeypatch.setattr(canonical_module.FormPlan, "bind", _first_order_kept)


class TestWrongSlotOrderIsCaught:
    def test_by_the_hand_case(self, wrong_slot_order):
        with pytest.raises(AssertionError):
            check_the_slots_keep_their_order()


class TestKindBlindSkeletonIsCaught:
    def test_by_the_hand_case(self, kind_blind_skeleton):
        with pytest.raises(InvariantViolation, match="canonical form of q"):
            check_the_kinds_keep_their_plans_apart()


class TestFirstOrderKeptIsCaught:
    def test_by_the_hand_case(self, first_order_kept):
        with pytest.raises(InvariantViolation, match="canonical form of q"):
            check_a_self_join_ranks_its_orders_per_ask()
