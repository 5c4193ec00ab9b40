"""Tests for the Datalog/Prolog-style parser."""

import pytest

from repro.common.errors import ParseError
from repro.logic.parser import (
    parse_atom,
    parse_clause,
    parse_program,
)
from repro.logic.terms import Atom, Const, Var


def parse_literals(text):
    """The literals of a conjunction, parsed as a rule body."""
    return list(parse_clause(f"h(x) :- {text}.").body)


class TestTerms:
    def test_lowercase_is_constant(self):
        atom = parse_atom("p(tom)")
        assert atom.args == (Const("tom"),)

    def test_uppercase_is_variable(self):
        atom = parse_atom("p(X)")
        assert atom.args == (Var("X"),)

    def test_underscore_starts_variable(self):
        atom = parse_atom("p(_thing)")
        assert atom.args == (Var("_thing"),)

    def test_integer_constant(self):
        assert parse_atom("p(42)").args == (Const(42),)

    def test_negative_and_float_constants(self):
        atom = parse_atom("p(-3, 2.5)")
        assert atom.args == (Const(-3), Const(2.5))

    def test_quoted_string_constant(self):
        atom = parse_atom("p('Hello World')")
        assert atom.args == (Const("Hello World"),)

    def test_zero_arity_atom(self):
        assert parse_atom("halt") == Atom("halt", ())


class TestClauses:
    def test_fact(self):
        clause = parse_clause("parent(tom, bob).")
        assert clause.is_fact
        assert clause.head == Atom("parent", (Const("tom"), Const("bob")))

    def test_rule(self):
        clause = parse_clause("ancestor(X, Y) :- parent(X, Y).")
        assert not clause.is_fact
        assert clause.head.pred == "ancestor"
        assert [b.pred for b in clause.body] == ["parent"]

    def test_multi_literal_body(self):
        clause = parse_clause("ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).")
        assert len(clause.body) == 2

    def test_negated_literal(self):
        clause = parse_clause("orphan(X) :- person(X), \\+ parent(Y, X).")
        assert clause.body[1].negated
        assert clause.body[1].pred == "parent"

    def test_comparison_literal(self):
        clause = parse_clause("adult(X) :- age(X, A), A >= 18.")
        comparison = clause.body[1]
        assert comparison.pred == ">="
        assert comparison.args == (Var("A"), Const(18))

    def test_all_comparison_operators(self):
        literals = parse_literals("A < B, A > B, A =< B, A >= B, A = B, A \\= B")
        assert [lit.pred for lit in literals] == ["<", ">", "=<", ">=", "=", "\\="]

    def test_neq_alias(self):
        (literal,) = parse_literals("A != B")
        assert literal.pred == "\\="

    def test_clause_roundtrip_str(self):
        text = "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y)."
        assert str(parse_clause(text)) == text


class TestProgram:
    def test_multiple_clauses(self):
        program = parse_program(
            """
            parent(tom, bob).
            parent(bob, ann).
            ancestor(X, Y) :- parent(X, Y).
            ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
            """
        )
        assert len(program) == 4
        assert sum(clause.is_fact for clause in program) == 2

    def test_comments_ignored(self):
        program = parse_program("% a comment\np(a). % trailing\n")
        assert len(program) == 1

    def test_empty_program(self):
        assert parse_program("") == []


class TestErrors:
    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse_program("p(a)")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_atom("p(a")

    def test_garbage_character(self):
        with pytest.raises(ParseError):
            parse_program("p(a) & q(b).")

    def test_trailing_input_after_atom(self):
        with pytest.raises(ParseError):
            parse_atom("p(a) q(b)")

    def test_error_reports_position(self):
        try:
            parse_program("p(a) @")
        except ParseError as exc:
            assert exc.position is not None
        else:
            pytest.fail("expected ParseError")

    def test_rule_head_cannot_be_comparison(self):
        with pytest.raises(ParseError):
            parse_clause("X < Y :- p(X, Y).")
