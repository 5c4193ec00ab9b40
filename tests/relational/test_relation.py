"""Tests for relation extensions."""

import pytest

from repro.common.errors import SchemaError
from repro.relational.relation import Relation, relation_from_columns, rows_bytes
from repro.relational.schema import Schema


@pytest.fixture
def emp():
    return relation_from_columns(
        "emp",
        id=[1, 2, 3],
        name=["ann", "bob", "cat"],
        dept=["hw", "sw", "sw"],
    )


class TestInsert:
    def test_insert_new(self):
        r = Relation(Schema("p", ("a",)))
        assert r.insert((1,))
        assert len(r) == 1

    def test_insert_duplicate_ignored(self):
        r = Relation(Schema("p", ("a",)))
        r.insert((1,))
        assert not r.insert((1,))
        assert len(r) == 1

    def test_arity_checked(self):
        r = Relation(Schema("p", ("a",)))
        with pytest.raises(SchemaError):
            r.insert((1, 2))

    def test_insert_all_counts_new(self):
        r = Relation(Schema("p", ("a",)))
        assert r.insert_all([(1,), (2,), (1,)]) == 2

    def test_list_rows_coerced(self):
        r = Relation(Schema("p", ("a", "b")))
        r.insert([1, 2])
        assert (1, 2) in r

    def test_order_stable(self):
        r = Relation(Schema("p", ("a",)), [(3,), (1,), (2,)])
        assert r.rows == [(3,), (1,), (2,)]


def inserted_one_by_one(schema, rows):
    """The per-row reference the bulk constructor must agree with."""
    out = Relation(schema)
    for row in rows:
        out.insert(row)
    return out


class TestBulkConstructor:
    SCHEMA = Schema("p", ("a", "b"))

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [(1, "x"), (2, "y")],
            [(2, "y"), (1, "x"), (2, "y"), (1, "x"), (3, "z")],  # duplicates
            [[1, "x"], (1, "x"), [2, "y"]],  # list rows, equal to a tuple row
            [(1, 2), (1.0, 2), (True, 2)],  # ==-equal spellings: first wins
        ],
    )
    def test_same_rows_same_order_as_per_row_insert(self, rows):
        bulk = Relation(self.SCHEMA, rows)
        reference = inserted_one_by_one(self.SCHEMA, rows)
        assert bulk.rows == reference.rows
        assert [type(v) for row in bulk for v in row] == [
            type(v) for row in reference for v in row
        ]
        assert all(type(row) is tuple for row in bulk)
        assert bulk == reference
        assert bulk.estimated_bytes() == reference.estimated_bytes()

    def test_generator_input_is_consumed_once(self):
        pulled = []

        def source():
            for row in [(1, "x"), (1, "x"), (2, "y")]:
                pulled.append(row)
                yield row

        assert Relation(self.SCHEMA, source()).rows == [(1, "x"), (2, "y")]
        assert len(pulled) == 3

    def test_bulk_built_relation_still_dedupes_on_insert(self):
        r = Relation(self.SCHEMA, [(1, "x")])
        assert not r.insert((1, "x"))
        assert r.insert((2, "y"))
        assert (2, "y") in r

    def test_wrong_arity_raises_the_insert_error_with_nothing_half_built(self):
        rows = [(1, "x"), (1, "x", "extra"), (2, "y")]
        with pytest.raises(SchemaError) as per_row:
            inserted_one_by_one(self.SCHEMA, rows)
        shell = Relation.__new__(Relation)
        with pytest.raises(SchemaError) as bulk:
            shell.__init__(self.SCHEMA, rows)
        assert str(bulk.value) == str(per_row.value)
        assert not hasattr(shell, "_rows") and not hasattr(shell, "_row_set")


class TestAccess:
    def test_contains(self, emp):
        assert (1, "ann", "hw") in emp
        assert (9, "zed", "hw") not in emp

    def test_column(self, emp):
        assert emp.column("name") == ["ann", "bob", "cat"]

    def test_distinct_values(self, emp):
        assert emp.distinct_values("dept") == {"hw", "sw"}

    def test_sorted_by(self, emp):
        ordered = emp.sorted_by(["name"], reverse=True)
        assert ordered.column("name") == ["cat", "bob", "ann"]

    def test_sorted_does_not_mutate(self, emp):
        emp.sorted_by(["name"], reverse=True)
        assert emp.column("id") == [1, 2, 3]


class TestEquality:
    def test_set_semantics(self):
        r1 = Relation(Schema("p", ("a",)), [(1,), (2,)])
        r2 = Relation(Schema("q", ("a",)), [(2,), (1,)])
        assert r1 == r2  # names differ, attributes and rows agree

    def test_different_rows_unequal(self):
        r1 = Relation(Schema("p", ("a",)), [(1,)])
        r2 = Relation(Schema("p", ("a",)), [(2,)])
        assert r1 != r2

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Relation(Schema("p", ("a",))))


class TestDerivation:
    def test_with_schema_shares_rows_under_new_attribute_names(self, emp):
        view = emp.with_schema(Schema("e", ("e.id", "e.name", "e.dept")))
        assert view._rows is emp._rows and view.column("e.name") == emp.column("name")
        with pytest.raises(SchemaError, match="arity"):
            emp.with_schema(Schema("e", ("only",)))

    def test_copy_is_independent(self, emp):
        dup = emp.copy()
        emp.insert((4, "dan", "hw"))
        assert len(dup) == 3

    def test_estimated_bytes_monotonic(self):
        small = Relation(Schema("p", ("a",)), [(1,)])
        big = Relation(Schema("p", ("a",)), [(i,) for i in range(100)])
        assert big.estimated_bytes() > small.estimated_bytes()

    def test_estimated_bytes_counts_strings(self):
        short = Relation(Schema("p", ("a",)), [("x",)])
        long = Relation(Schema("p", ("a",)), [("x" * 100,)])
        assert long.estimated_bytes() > short.estimated_bytes()


    def test_estimated_bytes_formula(self):
        # 8 per field, plus 2 per string character beyond 8.
        r = Relation(Schema("p", ("a", "b")), [(1, "x" * 8), (2, "x" * 11)])
        assert r.estimated_bytes() == 8 * 4 + 2 * 3

    def test_estimated_bytes_follows_inserts(self):
        r = Relation(Schema("p", ("a",)), [("x" * 20,)])
        assert r.estimated_bytes() == rows_bytes(r.rows)
        r.insert(("y" * 30,))
        r.insert(("y" * 30,))  # duplicate: not counted twice
        assert r.estimated_bytes() == rows_bytes(r.rows) == 16 + 2 * 12 + 2 * 22

    def test_estimated_bytes_of_aliases_follows_either_side(self, emp):
        staff = emp.with_schema(Schema("staff", emp.schema.attributes))
        assert staff.estimated_bytes() == emp.estimated_bytes()
        staff.insert((4, "a-rather-long-name", "hw"))
        emp.insert((5, "eve", "sw"))
        assert emp.estimated_bytes() == staff.estimated_bytes() == rows_bytes(emp.rows)

    def test_copy_and_sorted_keep_size_and_independence(self, emp):
        size = emp.estimated_bytes()
        dup, ordered = emp.copy(), emp.sorted_by(["name"], reverse=True)
        emp.insert((4, "a-rather-long-name", "hw"))
        assert dup.estimated_bytes() == ordered.estimated_bytes() == size
        assert (4, "a-rather-long-name", "hw") not in dup
        assert not dup.insert((1, "ann", "hw")) and not ordered.insert((1, "ann", "hw"))


class TestHelpers:
    def test_from_columns_mismatched_lengths(self):
        with pytest.raises(SchemaError):
            relation_from_columns("p", a=[1], b=[1, 2])

    def test_from_columns_empty(self):
        with pytest.raises(SchemaError):
            relation_from_columns("p")

    def test_pretty_contains_data(self, emp):
        text = emp.pretty()
        assert "ann" in text
        assert "name" in text

    def test_pretty_truncates(self):
        r = Relation(Schema("p", ("a",)), [(i,) for i in range(50)])
        assert "more rows" in r.pretty(limit=5)
