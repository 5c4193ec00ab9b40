"""Tests for PSJ normalization."""

import pytest

from repro.common.errors import TranslationError
from repro.relational.expressions import Col, Comparison, Lit
from repro.caql.eval import split_literals
from repro.caql.parser import parse_query
from repro.logic.builtins import BuiltinRegistry
from repro.caql.psj import ConstProj, column, parse_column, psj_from_literals


def normalize(text):
    query = parse_query(text)
    return psj_from_literals(
        query.name,
        *split_literals(query, BuiltinRegistry())[:2],
        query.answers,
    )


class TestColumns:
    def test_column_roundtrip(self):
        assert parse_column(column("t3", 2)) == ("t3", 2)

    def test_parse_column_rejects_garbage(self):
        with pytest.raises(TranslationError):
            parse_column("c3.t1")


class TestNormalization:
    def test_occurrences_in_body_order(self):
        psj = normalize("d2(X, Y) :- b2(X, Z), b3(Z, c2, Y)")
        assert psj.predicates() == ["b2", "b3"]
        assert [o.tag for o in psj.occurrences] == ["t0", "t1"]

    def test_constant_argument_becomes_condition(self):
        psj = normalize("d1(Y) :- b1(c1, Y)")
        assert Comparison(Col("t0.c0"), "=", Lit("c1")) in psj.conditions

    def test_shared_variable_becomes_join_condition(self):
        psj = normalize("d2(X, Y) :- b2(X, Z), b3(Z, c2, Y)")
        joins = [c for c in psj.conditions if c.is_col_col()]
        assert len(joins) == 1
        assert joins[0].columns() == {"t0.c1", "t1.c0"}

    def test_projection_uses_representatives(self):
        psj = normalize("d2(X, Y) :- b2(X, Z), b3(Z, c2, Y)")
        assert psj.projection == ("t0.c0", "t1.c2")

    def test_constant_answer_pinned(self):
        psj = normalize("d2(X, c6) :- b2(X, Z), b3(Z, c2, c6)")
        assert psj.projection[1] == ConstProj("c6")

    def test_repeated_variable_in_one_literal(self):
        psj = normalize("q(X) :- p(X, X)")
        joins = [c for c in psj.conditions if c.is_col_col()]
        assert len(joins) == 1
        assert joins[0].columns() == {"t0.c0", "t0.c1"}

    def test_comparison_literal_becomes_condition(self):
        psj = normalize("q(X) :- p(X, A), A >= 18")
        assert any(c.op == ">=" for c in psj.conditions)

    def test_comparison_operator_mapping(self):
        psj = normalize("q(X) :- p(X, A), A =< 9, A \\= 5")
        ops = {c.op for c in psj.conditions}
        assert "<=" in ops
        assert "!=" in ops

    def test_var_var_comparison(self):
        psj = normalize("q(X, Y) :- p(X, Y), X < Y")
        assert any(c.op == "<" and c.is_col_col() for c in psj.conditions)

    def test_const_const_comparison_true_dropped(self):
        psj = normalize("q(X) :- p(X), 1 < 2")
        assert not psj.unsatisfiable
        assert all(not (c.op == "<") for c in psj.conditions)

    def test_const_const_comparison_false_marks_unsat(self):
        psj = normalize("q(X) :- p(X), 2 < 1")
        assert psj.unsatisfiable

    def test_unbound_comparison_variable_rejected(self):
        with pytest.raises(TranslationError):
            normalize("q(X) :- p(X), A > 3")

    def test_unbound_answer_variable_rejected(self):
        query = parse_query("q(X) :- p(X)")
        with pytest.raises(TranslationError):
            psj_from_literals("q", [], list(query.literals)[:0], query.answers)

    def test_var_columns_recorded(self):
        psj = normalize("d2(X, Y) :- b2(X, Z), b3(Z, c2, Y)")
        recorded = dict(psj.var_columns)
        assert recorded["Z"] == ("t0.c1", "t1.c0")
        assert "Nope" not in recorded


class TestAccessors:
    def test_column_conditions(self):
        psj = normalize("d2(X, Y) :- b2(X, Z), b3(Z, c2, Y)")
        t1_conditions = psj.column_conditions("t1")
        assert len(t1_conditions) == 1
        assert t1_conditions[0].columns() == {"t1.c1"}

    def test_all_columns(self):
        psj = normalize("d1(Y) :- b1(c1, Y)")
        assert psj.all_columns() == ["t0.c0", "t0.c1"]

    def test_occurrence_lookup(self):
        psj = normalize("d1(Y) :- b1(c1, Y)")
        assert psj.occurrence("t0").pred == "b1"
        with pytest.raises(TranslationError):
            psj.occurrence("t9")

    def test_str_mentions_parts(self):
        text = str(normalize("d1(Y) :- b1(c1, Y)"))
        assert "b1" in text and "project" in text


class TestCanonicalKey:
    def test_identical_queries_same_key(self):
        a = normalize("d(X) :- p(X, c1)")
        b = normalize("d(X) :- p(X, c1)")
        assert a.canonical_key() == b.canonical_key()

    def test_variable_names_do_not_matter(self):
        a = normalize("d(X) :- p(X, c1)")
        b = normalize("d(W) :- p(W, c1)")
        assert a.canonical_key() == b.canonical_key()

    def test_different_constants_differ(self):
        a = normalize("d(X) :- p(X, c1)")
        b = normalize("d(X) :- p(X, c2)")
        assert a.canonical_key() != b.canonical_key()

    def test_different_predicates_differ(self):
        a = normalize("d(X) :- p(X, c1)")
        b = normalize("d(X) :- q(X, c1)")
        assert a.canonical_key() != b.canonical_key()

    def test_projection_matters(self):
        a = normalize("d(X) :- p(X, Y)")
        b = normalize("d(Y) :- p(X, Y)")
        assert a.canonical_key() != b.canonical_key()
