"""Tests for the relational substrate, and the condition shorthands they share."""

from repro.relational.expressions import Col, Comparison, Lit


def eq(column, value):
    """``column = value``."""
    return Comparison(Col(column), "=", Lit(value))


def col_eq(left, right):
    """``left = right`` between two columns."""
    return Comparison(Col(left), "=", Col(right))
