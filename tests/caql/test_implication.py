"""Tests for the condition implication engine — soundness is critical."""

from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.expressions import Col, Comparison, Lit
from repro.caql.implication import ConditionSet


def c(left, op, right):
    """Build a condition; strings shaped like ``t0.c1`` are columns."""

    def make(x):
        if isinstance(x, str) and "." in x and x.startswith("t"):
            return Col(x)
        return Lit(x)

    return Comparison(make(left), op, make(right))


A, B, C = "t0.c0", "t0.c1", "t1.c0"


def satisfiable(cs: ConditionSet) -> bool:
    """What the digest decided: only a set it found contradictory implies a
    pin on a column it never constrains (a contradiction implies anything)."""
    return not cs.implies(c("t9.c9", "=", "no such value"))


class TestColLit:
    def test_equality_implies_itself(self):
        assert ConditionSet([c(A, "=", 5)]).implies(c(A, "=", 5))

    def test_equality_implies_range(self):
        cs = ConditionSet([c(A, "=", 5)])
        assert cs.implies(c(A, "<", 10))
        assert cs.implies(c(A, ">=", 5))
        assert cs.implies(c(A, "!=", 7))

    def test_equality_does_not_imply_wrong_value(self):
        cs = ConditionSet([c(A, "=", 5)])
        assert not cs.implies(c(A, "=", 6))
        assert not cs.implies(c(A, "<", 5))

    def test_range_implies_wider_range(self):
        cs = ConditionSet([c(A, "<", 5)])
        assert cs.implies(c(A, "<", 10))
        assert cs.implies(c(A, "<=", 5))
        assert cs.implies(c(A, "!=", 9))

    def test_range_does_not_imply_narrower(self):
        cs = ConditionSet([c(A, "<", 10)])
        assert not cs.implies(c(A, "<", 5))
        assert not cs.implies(c(A, "=", 3))

    def test_strictness_boundary(self):
        assert ConditionSet([c(A, "<=", 5)]).implies(c(A, "<=", 5))
        assert not ConditionSet([c(A, "<=", 5)]).implies(c(A, "<", 5))
        assert ConditionSet([c(A, "<", 5)]).implies(c(A, "<=", 5))

    def test_lower_bounds(self):
        cs = ConditionSet([c(A, ">=", 3)])
        assert cs.implies(c(A, ">", 2))
        assert cs.implies(c(A, ">=", 3))
        assert not cs.implies(c(A, ">", 3))

    def test_not_equal_direct(self):
        assert ConditionSet([c(A, "!=", 4)]).implies(c(A, "!=", 4))

    def test_not_equal_from_range(self):
        assert ConditionSet([c(A, "<", 3)]).implies(c(A, "!=", 7))
        assert not ConditionSet([c(A, "<", 3)]).implies(c(A, "!=", 1))

    def test_closed_interval_pins(self):
        cs = ConditionSet([c(A, ">=", 5), c(A, "<=", 5)])
        assert cs.implies(c(A, "=", 5))

    def test_nothing_from_empty_set(self):
        cs = ConditionSet([])
        assert not cs.implies(c(A, "<", 5))
        assert not cs.implies(c(A, "=", 5))

    def test_string_equality(self):
        cs = ConditionSet([c(A, "=", "nj")])
        assert cs.implies(c(A, "=", "nj"))
        assert cs.implies(c(A, "!=", "ca"))


class TestEquivalenceClasses:
    def test_equality_chain(self):
        cs = ConditionSet([c(A, "=", B), c(B, "=", C)])
        assert cs.implies(c(A, "=", C))

    def test_pinned_value_propagates_through_class(self):
        cs = ConditionSet([c(A, "=", B), c(B, "=", 7)])
        assert cs.implies(c(A, "=", 7))
        assert cs.implies(c(A, "<", 10))

    def test_range_propagates_through_class(self):
        cs = ConditionSet([c(A, "=", B), c(B, "<", 5)])
        assert cs.implies(c(A, "<", 10))

    def test_unrelated_columns_not_equated(self):
        cs = ConditionSet([c(A, "=", 5), c(B, "=", 5)])
        assert cs.implies(c(A, "=", B))  # both pinned to the same value
        cs2 = ConditionSet([c(A, "=", 5), c(B, "=", 6)])
        assert not cs2.implies(c(A, "=", B))


class TestColCol:
    def test_syntactic_presence(self):
        cs = ConditionSet([c(A, "<", B)])
        assert cs.implies(c(A, "<", B))

    def test_presence_through_classes(self):
        cs = ConditionSet([c(A, "<", B), c(B, "=", C)])
        assert cs.implies(c(A, "<", C))

    def test_derived_from_disjoint_ranges(self):
        cs = ConditionSet([c(A, "<", 3), c(B, ">", 7)])
        assert cs.implies(c(A, "<", B))
        assert cs.implies(c(A, "!=", B))

    def test_derived_from_pins(self):
        cs = ConditionSet([c(A, "=", 2), c(B, "=", 9)])
        assert cs.implies(c(A, "<", B))
        assert not cs.implies(c(A, ">", B))

    def test_touching_ranges_need_strictness(self):
        cs = ConditionSet([c(A, "<=", 5), c(B, ">=", 5)])
        assert cs.implies(c(A, "<=", B))
        assert not cs.implies(c(A, "<", B))
        strict = ConditionSet([c(A, "<", 5), c(B, ">=", 5)])
        assert strict.implies(c(A, "<", B))

    def test_flipped_operators(self):
        cs = ConditionSet([c(A, "<", 3), c(B, ">", 7)])
        assert cs.implies(c(B, ">", A))


class TestSatisfiability:
    def test_empty_is_satisfiable(self):
        assert satisfiable(ConditionSet([]))

    def test_conflicting_pins(self):
        assert not satisfiable(ConditionSet([c(A, "=", 1), c(A, "=", 2)]))

    def test_conflicting_pins_through_class(self):
        cs = ConditionSet([c(A, "=", 1), c(B, "=", 2), c(A, "=", B)])
        assert not satisfiable(cs)

    def test_empty_range(self):
        assert not satisfiable(ConditionSet([c(A, ">", 5), c(A, "<", 3)]))

    def test_point_range_with_strict_bound(self):
        assert not satisfiable(ConditionSet([c(A, ">=", 5), c(A, "<", 5)]))

    def test_pin_outside_range(self):
        assert not satisfiable(ConditionSet([c(A, "=", 9), c(A, "<", 3)]))

    def test_pin_excluded(self):
        assert not satisfiable(ConditionSet([c(A, "=", 4), c(A, "!=", 4)]))

    def test_unsatisfiable_implies_everything(self):
        cs = ConditionSet([c(A, "=", 1), c(A, "=", 2)])
        assert cs.implies(c(B, "=", 99))


class TestBuiltOnce:
    """A set never changes after construction, so nothing about it is
    re-derived per ``implies`` call."""

    def test_satisfiability_is_decided_at_construction(self, monkeypatch):
        from repro.caql import implication

        cs = ConditionSet([c(A, ">", 1), c(B, "=", 2), c(A, "<", 9)])
        contradictory = ConditionSet([c(A, "=", 1), c(A, "=", 2)])

        def resettle(self):
            raise AssertionError("class settled for satisfiability after build")

        monkeypatch.setattr(implication._ClassInfo, "settle", resettle)
        assert satisfiable(cs) and cs.implies(c(A, ">", 0))
        assert not satisfiable(contradictory)
        assert contradictory.implies(c(C, "=", 99))

    def test_unconstrained_columns_share_one_read_only_info(self):
        cs = ConditionSet([c(A, "<", 5)])
        assert cs._info(B) is cs._info(C) is ConditionSet([])._info(A)
        assert cs.pinned_value(B) == (False, None)
        # Asking about a column the set never mentions leaves no trace.
        before = dict(cs._parent)
        assert not cs.implies(c(B, "<", 5)) and not cs.implies(c(B, "!=", 5))
        assert cs._parent == before

    def test_equality_chains_are_flat_after_build_so_reads_write_nothing(self):
        # Unions in an order that leaves a three-deep parent chain behind.
        D, E = "t1.c1", "t2.c0"
        cs = ConditionSet([c(A, "=", B), c(C, "=", D), c(B, "=", D), c(D, "=", E), c(E, "=", 7)])
        root = cs._find(E)
        assert all(cs._parent.get(col, col) == root for col in (A, B, C, D, E))
        before = dict(cs._parent)
        assert cs.same_class(A, C) and cs.pinned_value(A) == (True, 7)
        assert cs.implies(c(A, "=", 7)) and cs.implies(c(C, "=", A))
        assert cs._parent == before

    def test_implies_literal_is_implies_without_the_comparison(self):
        cs = ConditionSet([c(A, "=", B), c(B, "=", 3), c(C, ">=", 2), c(C, "<=", 2)])
        for col, op, value in [
            (A, "=", 3), (A, "=", 3.0), (A, "<", 3), (A, "!=", "3"),
            (C, "=", 2), (C, "=", True), (C, ">", 2), (B, "<=", 3),
        ]:
            assert cs.implies_literal(col, op, value) == cs.implies(c(col, op, value))
        unsat = ConditionSet([c(A, ">", 5), c(A, "<", 3)])
        assert unsat.implies_literal(C, "=", 99)


class TestTypeSafety:
    def test_mixed_types_never_imply(self):
        cs = ConditionSet([c(A, "<", 5)])
        assert not cs.implies(c(A, "<", "zebra"))

    def test_an_unhashable_constant_is_a_value_not_a_crash(self):
        cs = ConditionSet([c(A, "!=", [1, 2]), c(A, "!=", [1, 2]), c(B, "=", [3])])
        assert cs.implies(c(A, "!=", [1, 2])) and not cs.implies(c(A, "!=", [2, 1]))
        assert cs.implies(c(B, "=", [3])) and cs.implies(c(B, "!=", [1, 2]))
        assert cs.classes[A].excluded == [[1, 2]]  # ==-deduplicated


class TestOneFoldOneAnswer:
    """The edge cases on which two separate folds can differ, and one cannot."""

    def test_mixed_kind_bounds_do_not_depend_on_conjunct_order(self):
        # One interval per comparability kind: neither bound shadows the other.
        for premises in permutations([c(A, ">", 5), c(A, ">", "a"), c(A, "<", 9)]):
            cs = ConditionSet(premises)
            assert cs.implies(c(A, ">", "A")) and cs.implies(c(A, ">", 4))
            assert cs.implies(c(A, "<=", 9)) and not cs.implies(c(A, "<", "z"))

    def test_a_strict_comparison_within_one_class_is_a_contradiction(self):
        for op in ("<", ">", "!="):
            assert not satisfiable(ConditionSet([c(A, "=", B), c(A, op, B)]))
            assert not satisfiable(ConditionSet([c(A, op, C), c(B, "=", C), c(A, "=", B)]))
        assert ConditionSet([c(A, "=", B), c(A, "<", B)]).implies(c(C, "=", 99))
        assert satisfiable(ConditionSet([c(A, "=", B), c(A, "<=", B), c(B, ">=", A)]))

    def test_general_conditions_match_in_either_spelling(self):
        cs = ConditionSet([c(B, ">", C), c(A, "=", C)])
        assert cs.implies(c(A, "<", B)) and cs.implies(c(B, ">", A))
        assert not cs.implies(c(A, ">", B)) and not cs.implies(c(A, "<=", B))


# -- property-based soundness check ------------------------------------------------

columns = st.sampled_from([A, B, C])
operators = st.sampled_from(["=", "!=", "<", ">", "<=", ">="])
# Mixed comparability kinds on purpose: a bound of one kind must neither
# shadow nor vouch for a bound of another (``holds`` is False on a clash).
values = st.one_of(st.integers(0, 6), st.sampled_from([2.5, True, "a", "A", "b"]))
conditions = st.builds(
    lambda col, op, val: c(col, op, val), columns, operators, values
)
col_col = st.builds(
    lambda l, op, r: c(l, op, r),
    columns,
    st.sampled_from(["=", "<", "<="]),
    columns,
)
condition_sets = st.lists(st.one_of(conditions, col_col), min_size=0, max_size=5)


def _evaluate(condition, assignment):
    from repro.relational.expressions import holds

    def value(operand):
        return assignment[operand.name] if isinstance(operand, Col) else operand.value

    return holds(value(condition.left), condition.op, value(condition.right))


assignments = st.fixed_dictionaries({A: values, B: values, C: values})


@settings(max_examples=300, deadline=None)
@given(condition_sets, st.one_of(conditions, col_col), assignments)
def test_implication_is_sound(premises, conclusion, assignment):
    """If implies() says yes, every model of the premises satisfies the
    conclusion — checked against random assignments."""
    cs = ConditionSet(premises)
    if cs.implies(conclusion):
        if all(_evaluate(p, assignment) for p in premises):
            assert _evaluate(conclusion, assignment)


@settings(max_examples=300, deadline=None)
@given(condition_sets, assignments)
def test_unsatisfiability_is_sound(premises, assignment):
    """If the set is found unsatisfiable, no assignment satisfies the premises."""
    cs = ConditionSet(premises)
    if not satisfiable(cs):
        assert not all(_evaluate(p, assignment) for p in premises)


# Bounds on one column, so kinds meet on it often enough to matter.
bounds = st.builds(
    lambda op, val: c(A, op, val), st.sampled_from(["<", "<=", ">", ">="]), values
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(bounds, conditions, col_col), max_size=4),
    st.one_of(bounds, conditions, col_col),
)
def test_answers_do_not_depend_on_conjunct_order(premises, conclusion):
    """Every permutation of a conjunction implies the same conditions — so
    no re-ordered spelling of one query can be planned differently."""
    answers = {ConditionSet(p).implies(conclusion) for p in permutations(premises)}
    assert len(answers) == 1
