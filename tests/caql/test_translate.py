"""Tests for CAQL → remote DML translation."""

import pytest

from repro.common.errors import TranslationError
from repro.relational.relation import relation_from_columns
from repro.relational.schema import Schema
from repro.remote.server import RemoteDBMS
from repro.remote.sql import render_sql
from repro.baselines import LooseCoupling
from repro.caql.ast import COMPARISON_PREDS, ConjunctiveQuery
from repro.caql.eval import evaluate_conjunctive, split_literals
from repro.caql.parser import parse_query
from repro.caql.psj import psj_from_literals
from repro.caql.translate import sql_from_psj
from repro.core.cms import CacheManagementSystem
from repro.logic.builtins import BuiltinRegistry
from repro.logic.terms import Atom, Const, Var

SCHEMAS = {
    "parent": Schema("parent", ("par", "child")),
    "age": Schema("age", ("person", "years")),
}


def normalize(text):
    query = parse_query(text)
    return psj_from_literals(
        query.name,
        *split_literals(query, BuiltinRegistry())[:2],
        query.answers,
    )


def translate(text):
    return sql_from_psj(normalize(text), SCHEMAS.__getitem__)


class TestTranslation:
    def test_single_table(self):
        translation = translate("q(X, Y) :- parent(X, Y)")
        sql = render_sql(translation.query)
        assert sql == "SELECT DISTINCT t0.par, t0.child FROM parent AS t0"

    def test_constant_condition(self):
        translation = translate("q(Y) :- parent(tom, Y)")
        sql = render_sql(translation.query)
        assert "t0.par = 'tom'" in sql

    def test_join_condition(self):
        translation = translate("q(X, A) :- parent(X, Y), age(Y, A)")
        sql = render_sql(translation.query)
        assert "FROM parent AS t0, age AS t1" in sql
        assert "t0.child = t1.person" in sql

    def test_comparison_condition(self):
        translation = translate("q(X) :- age(X, A), A >= 18")
        assert "t0.years >= 18" in render_sql(translation.query)

    def test_projection_maps_attribute_names(self):
        translation = translate("q(A, X) :- age(X, A)")
        cols = [f"{c.alias}.{c.attr}" for c in translation.query.select]
        assert cols == ["t0.years", "t0.person"]

    def test_duplicate_projection_columns_shipped_once(self):
        translation = translate("q(X, X) :- parent(X, Y)")
        assert len(translation.query.select) == 1
        assert translation.output == (("col", 0), ("col", 0))

    def test_constant_answer_not_shipped(self):
        translation = translate("q(Y, tom) :- parent(tom, Y)")
        assert len(translation.query.select) == 1
        assert translation.output[1] == ("const", "tom")

    def test_boolean_query_ships_witness(self):
        translation = translate("q(tom, bob) :- parent(tom, bob)")
        # Fully instantiated: both outputs constant, one witness column.
        assert len(translation.query.select) == 1
        assert all(kind == "const" for kind, _ in translation.output)

    def test_no_occurrences_rejected(self):
        empty = psj_from_literals("q", [], [], ())
        with pytest.raises(TranslationError):
            sql_from_psj(empty, SCHEMAS.__getitem__)

    def test_unsatisfiable_rejected(self):
        psj = normalize("q(X) :- parent(X, Y), 2 < 1")
        with pytest.raises(TranslationError):
            sql_from_psj(psj, SCHEMAS.__getitem__)

    def test_arity_mismatch_rejected(self):
        psj = normalize("q(X) :- parent(X, Y, Z)")
        with pytest.raises(TranslationError):
            sql_from_psj(psj, SCHEMAS.__getitem__)


class TestRebuild:
    def test_rebuild_rows_with_constants(self):
        translation = translate("q(Y, tom) :- parent(tom, Y)")
        relation = translation.rebuild([("bob",), ("liz",)])
        assert set(relation.rows) == {("bob", "tom"), ("liz", "tom")}

    def test_rebuild_duplicate_columns(self):
        translation = translate("q(X, X) :- parent(X, Y)")
        relation = translation.rebuild([("tom",)])
        assert relation.rows == [("tom", "tom")]

    def test_rebuild_of_columns_only_is_the_row_by_row_rebuild(self):
        translation = translate("q(Y, X, Y) :- parent(X, Y)")
        # SELECT lists a column once, at its first use: shipped rows are (Y, X).
        shipped = [("bob", "tom"), ("liz", "tom"), ("bob", "tom")]
        relation = translation.rebuild(shipped)
        relation.check_invariants()
        assert relation.rows == [("bob", "tom", "bob"), ("liz", "tom", "liz")]
        assert relation.rows == list(dict.fromkeys((y, x, y) for y, x in shipped))
        assert relation.schema.name == "q" and relation.schema.arity == 3

    def test_rebuild_of_one_column_yields_tuples(self):
        relation = translate("q(X) :- parent(X, Y)").rebuild([("tom",), ("bob",), ("tom",)])
        relation.check_invariants()
        assert relation.rows == [("tom",), ("bob",)]

    def test_rebuild_boolean_nonempty(self):
        translation = translate("q(tom, bob) :- parent(tom, bob)")
        relation = translation.rebuild([("tom",)])
        assert relation.rows == [("tom", "bob")]

    def test_rebuild_boolean_empty(self):
        translation = translate("q(tom, bob) :- parent(tom, bob)")
        assert len(translation.rebuild([])) == 0


class TestEndToEnd:
    """Translated queries executed by a real remote DBMS match local eval."""

    @pytest.fixture
    def server(self):
        dbms = RemoteDBMS()
        dbms.load_table(
            relation_from_columns(
                "parent",
                par=["tom", "tom", "bob", "bob"],
                child=["bob", "liz", "ann", "pat"],
            )
        )
        dbms.load_table(
            relation_from_columns(
                "age",
                person=["tom", "bob", "liz", "ann", "pat"],
                years=[60, 35, 33, 8, 10],
            )
        )
        return dbms

    def test_selection_roundtrip(self, server):
        translation = translate("q(Y) :- parent(tom, Y)")
        shipped = server.execute(translation.query)
        result = translation.rebuild(shipped.rows)
        assert set(result.rows) == {("bob",), ("liz",)}

    def test_join_roundtrip(self, server):
        translation = translate("q(X, A) :- parent(X, Y), age(Y, A), A < 20")
        shipped = server.execute(translation.query)
        result = translation.rebuild(shipped.rows)
        assert set(result.rows) == {("bob", 8), ("bob", 10)}

    def test_instantiated_roundtrip(self, server):
        translation = translate("q(Y, tom) :- parent(tom, Y)")
        shipped = server.execute(translation.query)
        result = translation.rebuild(shipped.rows)
        assert set(result.rows) == {("bob", "tom"), ("liz", "tom")}


class TestUntranslatableLiterals:
    """Literals no PSJ condition can express end in ``TranslationError`` —
    on the CMS, ``explain``, the baselines and the oracle alike, from the
    one place all four start (``split_literals``).  Before, the CMS dropped
    a negated literal and the oracle joined it positively; both answered."""

    NEGATED = parse_query("d(X) :- b0(X, Y), \\+ b1(X, Z)")
    #: Only constructible programmatically: the parser emits binary ones.
    TERNARY = ConjunctiveQuery(
        "d",
        (Var("X"),),
        (Atom("b0", (Var("X"), Var("Y"))), Atom("<", (Var("X"), Var("Y"), Const(3)))),
    )

    TABLES = {
        "b0": relation_from_columns("b0", a=[1, 3], b=[2, 4]),
        "b1": relation_from_columns("b1", a=[1], b=[9]),
    }

    @pytest.fixture
    def server(self):
        dbms = RemoteDBMS()
        for table in self.TABLES.values():
            dbms.load_table(table)
        return dbms

    @pytest.mark.parametrize(
        "query, names",
        [(NEGATED, "\\+b1(X, Z)"), (TERNARY, "<(X, Y, 3)")],
        ids=["negated", "ternary-comparison"],
    )
    def test_every_path_refuses_alike(self, server, query, names):
        cms = CacheManagementSystem(server)
        cms.begin_session()
        for ask in (
            cms.query,
            cms.explain,
            LooseCoupling(server).query,
            lambda q: evaluate_conjunctive(q, self.TABLES.__getitem__),
        ):
            with pytest.raises(TranslationError) as refusal:
                ask(query)
            assert f"{names} in d" in str(refusal.value)
        assert len(cms.cache) == 0

    def test_psj_from_literals_refuses_a_non_binary_comparison_itself(self):
        # ``planner.generalization_of`` hands advised view definitions to
        # it directly, without going through ``split_literals``.
        with pytest.raises(TranslationError):
            literals = self.TERNARY.literals
            psj_from_literals(
                "d",
                [lit for lit in literals if lit.pred not in COMPARISON_PREDS],
                [lit for lit in literals if lit.pred in COMPARISON_PREDS],
                self.TERNARY.answers,
            )
