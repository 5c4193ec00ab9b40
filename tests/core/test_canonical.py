"""Unit tests for the PSJ canonicalizer's interval normal form.

The hand-picked edge cases the ISSUE names: contradictory bounds,
``>=`` vs ``>`` adjacency, mixed int/float bounds on one variable,
equality pins collapsing intervals, and the repr-collider constant
family (``1``, ``1.0``, ``True``, ``"1"``).  The broad equivalences are
property-tested in ``test_canonical_property.py``; the fuzzer's
``variants`` profile carries the end-to-end argument.
"""

from repro.caql.eval import split_literals
from repro.caql.parser import parse_query
from repro.logic.builtins import BuiltinRegistry
from repro.caql.psj import ConstProj, PSJQuery, psj_from_literals
from repro.core.canonical import (
    canonical_constant,
    canonical_key,
    canonicalize,
    normalized,
)
from repro.relational.expressions import Col, Comparison, Lit


def psj(text: str) -> PSJQuery:
    query = parse_query(text)
    return psj_from_literals(
        query.name,
        *split_literals(query, BuiltinRegistry())[:2],
        query.answers,
    )


def keys_equal(a: str, b: str) -> bool:
    return canonical_key(psj(a)) == canonical_key(psj(b))


class TestIntervalFolding:
    def test_redundant_lower_bounds_fold(self):
        assert keys_equal(
            "d0(X, Y) :- b0(X, Y), X > 5, X > 3",
            "d0(X, Y) :- b0(X, Y), X > 5",
        )

    def test_redundant_upper_bounds_fold(self):
        assert keys_equal(
            "d0(X, Y) :- b0(X, Y), X < 3, X < 5, X < 9",
            "d0(X, Y) :- b0(X, Y), X < 3",
        )

    def test_strict_beats_nonstrict_at_equal_value(self):
        # x > 5 ∧ x >= 5  ≡  x > 5 (and symmetrically for uppers).
        assert keys_equal(
            "d0(X, Y) :- b0(X, Y), X > 5, X >= 5",
            "d0(X, Y) :- b0(X, Y), X > 5",
        )
        assert keys_equal(
            "d0(X, Y) :- b0(X, Y), X < 5, X =< 5",
            "d0(X, Y) :- b0(X, Y), X < 5",
        )

    def test_adjacent_strictness_levels_stay_distinct(self):
        # >= 5 admits 5; > 5 does not: different queries, different keys.
        assert not keys_equal(
            "d0(X, Y) :- b0(X, Y), X >= 5",
            "d0(X, Y) :- b0(X, Y), X > 5",
        )

    def test_mixed_int_float_bounds_on_one_variable(self):
        # 4.5 < 5, so x > 5 subsumes x > 4.5 whatever the spelling.
        assert keys_equal(
            "d0(X, Y) :- b0(X, Y), X > 4.5, X > 5",
            "d0(X, Y) :- b0(X, Y), X > 5.0",
        )

    def test_contradictory_bounds_are_unsatisfiable(self):
        form = canonicalize(psj("d0(X, Y) :- b0(X, Y), X > 5, X < 3"))
        assert form.unsatisfiable
        assert form.key == ("unsat", "2")

    def test_closed_empty_interval_is_unsatisfiable(self):
        # x >= 5 ∧ x < 5 and x > 5 ∧ x =< 5 both admit nothing.
        assert canonicalize(psj("d0(X) :- b0(X, Y), X >= 5, X < 5")).unsatisfiable
        assert canonicalize(psj("d0(X) :- b0(X, Y), X > 5, X =< 5")).unsatisfiable

    def test_touching_nonstrict_bounds_collapse_to_a_pin(self):
        assert keys_equal(
            "d0(X) :- b0(X, Y), X >= 5, X =< 5",
            "d0(X) :- b0(X, Y), X = 5",
        )

    def test_equality_pin_collapses_interval(self):
        # The pin absorbs every bound it satisfies...
        assert keys_equal(
            "d0(X) :- b0(X, Y), X = 5, X > 3, X =< 9",
            "d0(X) :- b0(X, Y), X = 5",
        )
        # ...and contradicts every bound it does not.
        assert canonicalize(psj("d0(X) :- b0(X, Y), X = 5, X > 7")).unsatisfiable

    def test_conflicting_pins_are_unsatisfiable(self):
        assert canonicalize(psj("d0(X) :- b0(X, Y), X = 3, X = 5")).unsatisfiable

    def test_pin_on_excluded_value_is_unsatisfiable(self):
        assert canonicalize(psj("d0(X) :- b0(X, Y), X = 3, X \\= 3")).unsatisfiable
        assert canonicalize(
            psj("d0(X) :- b0(X, Y), X = 3, X \\= 3.0")
        ).unsatisfiable

    def test_exclusions_outside_the_interval_fold_away(self):
        assert keys_equal(
            "d0(X) :- b0(X, Y), X > 2, X \\= 1",
            "d0(X) :- b0(X, Y), X > 2",
        )

    def test_exclusions_inside_the_interval_survive(self):
        assert not keys_equal(
            "d0(X) :- b0(X, Y), X > 2, X \\= 4",
            "d0(X) :- b0(X, Y), X > 2",
        )


class TestConstantSpellings:
    def test_repr_collider_family(self):
        # 1, 1.0 and True are ==-equal: one equality class, one spelling.
        # "1" is a different value entirely and must stay apart.
        assert canonical_constant(1) == canonical_constant(1.0)
        assert canonical_constant(True) == canonical_constant(1)
        assert type(canonical_constant(1)) is float
        assert canonical_constant("1") == "1"
        assert keys_equal(
            "d0(X) :- b0(X, Y), X = 1",
            "d0(X) :- b0(X, Y), X = 1.0",
        )

    def test_string_spelling_never_merges_with_numeric(self):
        a = psj_from_literals(
            "d0", [parse_query("d0(X) :- b0(X, Y)").literals[0]], [], ()
        )
        one = PSJQuery(
            "d0", a.occurrences,
            (Comparison(Col("t0.c0"), "=", Lit(1)),), ("t0.c0",),
        )
        one_str = PSJQuery(
            "d0", a.occurrences,
            (Comparison(Col("t0.c0"), "=", Lit("1")),), ("t0.c0",),
        )
        assert canonical_key(one) != canonical_key(one_str)

    def test_huge_ints_keep_their_own_spelling(self):
        # 10**30 is not float-representable: it must not collapse onto
        # the nearest float's equality class.
        big = 10**30
        assert canonical_constant(big) == big
        assert type(canonical_constant(big)) is int

    def test_answer_constants_are_not_respelled(self):
        # ConstProj values are *outputs*: 1 and 1.0 are different rows
        # under the type-preserving answer encoding.
        base = psj("d0(X) :- b0(X, Y)")
        one = PSJQuery(base.name, base.occurrences, base.conditions,
                       (ConstProj(1),) + base.projection)
        one_f = PSJQuery(base.name, base.occurrences, base.conditions,
                         (ConstProj(1.0),) + base.projection)
        assert canonical_key(one) != canonical_key(one_f)


class TestAlphaEquivalence:
    def test_conjunct_order_is_irrelevant(self):
        assert keys_equal(
            "d0(X, Y) :- b0(X, Z), b1(Z, Y), X > 2",
            "d0(X, Y) :- b1(Z, Y), X > 2, b0(X, Z)",
        )

    def test_variable_names_are_irrelevant(self):
        assert keys_equal(
            "d0(X, Y) :- b0(X, Z), b1(Z, Y)",
            "d0(U, W) :- b0(U, V), b1(V, W)",
        )

    def test_same_relation_twice_is_ordered_canonically(self):
        assert keys_equal(
            "d0(X, Y) :- b0(X, Z), b0(Z, Y), X > 5",
            "d0(X, Y) :- b0(Z, Y), b0(X, Z), X > 5",
        )

    def test_projection_order_still_matters(self):
        assert not keys_equal(
            "d0(X, Y) :- b0(X, Y)",
            "d0(Y, X) :- b0(X, Y)",
        )

    def test_join_shape_still_matters(self):
        assert not keys_equal(
            "d0(X, Y) :- b0(X, Z), b1(Z, Y)",
            "d0(X, Y) :- b0(X, Z), b1(W, Y), Z > W",
        )


class TestNormalizedExpression:
    def test_canonicalization_is_idempotent(self):
        query = psj("d0(X, Y) :- b1(Z, Y), X > 5, X > 3, b0(X, Z), X \\= 1")
        expression = normalized(query)
        assert canonical_key(expression) == canonical_key(query)
        assert normalized(expression) == expression

    def test_unsatisfiable_query_normalizes_to_itself_flagged(self):
        # No expression to rebuild: the query comes back marked empty (the
        # very object when constant folding had already marked it).
        folded = psj("d0(X, Y) :- b0(X, Y), X > 5, X < 3")
        assert not folded.unsatisfiable
        expression = normalized(folded)
        assert expression.unsatisfiable
        assert expression.conditions == folded.conditions
        assert normalized(expression) is expression

    def test_trivial_self_comparisons_fold(self):
        base = psj("d0(X) :- b0(X, Y)")
        trivial = PSJQuery(
            base.name, base.occurrences,
            (Comparison(Col("t0.c0"), "<=", Col("t0.c0")),), base.projection,
        )
        assert canonical_key(trivial) == canonical_key(base)
        never = PSJQuery(
            base.name, base.occurrences,
            (Comparison(Col("t0.c0"), "<", Col("t0.c0")),), base.projection,
        )
        assert canonicalize(never).unsatisfiable

    def test_the_key_and_the_carried_fold_agree_on_what_is_empty(self):
        # One fold: what the key calls empty, the set the subsumption
        # probe reads implies everything from — ``X = Y ∧ X < Y`` included.
        base = psj("d0(X) :- b0(X, Y)")
        x, y = Col("t0.c0"), Col("t0.c1")
        for conditions, empty in [
            ((Comparison(x, "=", y), Comparison(x, "<", y)), True),
            ((Comparison(x, "=", y), Comparison(y, "!=", x)), True),
            ((Comparison(x, "=", y), Comparison(x, "<=", y)), False),
            ((Comparison(x, ">", Lit(5)), Comparison(x, "<", Lit(3))), True),
            ((Comparison(x, ">", Lit(5)), Comparison(x, "<", Lit("a"))), False),
        ]:
            form = canonicalize(
                PSJQuery(base.name, base.occurrences, conditions, base.projection)
            )
            assert form.unsatisfiable is empty
            assert form.conditions.satisfiable is not empty
            assert form.conditions.implies(Comparison(y, "=", Lit("anything"))) is empty

    def test_constant_folded_unsat_queries_share_the_unsat_key(self):
        query = psj("d0(X) :- b0(X, Y), 1 > 2")
        assert query.unsatisfiable
        assert canonical_key(query) == ("unsat", "1")
