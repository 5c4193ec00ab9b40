"""Tests for the DML structures and SQL rendering."""

import pytest

from repro.common.errors import TranslationError
from repro.remote.sql import (
    SelectQuery,
    SqlCol,
    SqlCondition,
    SqlLit,
    TableRef,
    render_literal,
    render_sql,
)


def simple_query():
    return SelectQuery(
        tables=(TableRef("emp", "e"), TableRef("dept", "d")),
        select=(SqlCol("e", "name"), SqlCol("d", "site")),
        where=(
            SqlCondition(SqlCol("e", "dept"), "=", SqlCol("d", "code")),
            SqlCondition(SqlCol("d", "site"), "=", SqlLit("ca")),
        ),
    )


class TestValidation:
    def test_needs_tables(self):
        with pytest.raises(TranslationError):
            SelectQuery(tables=(), select=(SqlCol("e", "x"),))

    def test_needs_columns(self):
        with pytest.raises(TranslationError):
            SelectQuery(tables=(TableRef("emp", "e"),), select=())

    def test_duplicate_aliases_rejected(self):
        with pytest.raises(TranslationError):
            SelectQuery(
                tables=(TableRef("emp", "e"), TableRef("dept", "e")),
                select=(SqlCol("e", "x"),),
            )

    def test_select_alias_must_exist(self):
        with pytest.raises(TranslationError):
            SelectQuery(tables=(TableRef("emp", "e"),), select=(SqlCol("z", "x"),))

    def test_where_alias_must_exist(self):
        with pytest.raises(TranslationError):
            SelectQuery(
                tables=(TableRef("emp", "e"),),
                select=(SqlCol("e", "x"),),
                where=(SqlCondition(SqlCol("z", "x"), "=", SqlLit(1)),),
            )

    def test_bad_operator_rejected(self):
        with pytest.raises(TranslationError):
            SqlCondition(SqlCol("e", "x"), "LIKE", SqlLit("%a%"))

    def test_self_join_aliases(self):
        query = SelectQuery(
            tables=(TableRef("emp", "e1"), TableRef("emp", "e2")),
            select=(SqlCol("e1", "name"),),
        )
        assert {ref.table for ref in query.tables} == {"emp"}
        assert [ref.alias for ref in query.tables] == ["e1", "e2"]


class TestRendering:
    def test_render_basic(self):
        sql = render_sql(simple_query())
        assert sql == (
            "SELECT DISTINCT e.name, d.site FROM emp AS e, dept AS d "
            "WHERE e.dept = d.code AND d.site = 'ca'"
        )

    def test_render_without_where(self):
        query = SelectQuery(tables=(TableRef("emp", "e"),), select=(SqlCol("e", "x"),))
        assert render_sql(query) == "SELECT DISTINCT e.x FROM emp AS e"

    def test_alias_same_as_table(self):
        query = SelectQuery(
            tables=(TableRef("emp", "emp"),), select=(SqlCol("emp", "x"),)
        )
        assert "AS" not in render_sql(query)

    def test_str_is_sql(self):
        assert str(simple_query()) == render_sql(simple_query())


class TestLiterals:
    def test_string_quoted(self):
        assert render_literal("ca") == "'ca'"

    def test_quote_escaped(self):
        assert render_literal("o'hare") == "'o''hare'"

    def test_numbers(self):
        assert render_literal(42) == "42"
        assert render_literal(2.5) == "2.5"

    def test_bool_as_int(self):
        assert render_literal(True) == "1"

    def test_none_as_null(self):
        assert render_literal(None) == "NULL"

    def test_unsupported_type_rejected(self):
        with pytest.raises(TranslationError):
            render_literal([1, 2])
