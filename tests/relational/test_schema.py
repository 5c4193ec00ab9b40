"""Tests for relation schemas."""

import pytest

from repro.common.errors import SchemaError
from repro.relational.schema import Schema


class TestConstruction:
    def test_basic(self):
        schema = Schema("emp", ("id", "name", "dept"))
        assert schema.arity == 3
        assert schema.attributes == ("id", "name", "dept")

    def test_attributes_coerced_to_tuple(self):
        schema = Schema("emp", ["id", "name"])
        assert isinstance(schema.attributes, tuple)

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            Schema("emp", ("id", "id"))

    def test_empty_attributes_rejected(self):
        with pytest.raises(SchemaError):
            Schema("emp", ())

    def test_key_must_be_attribute(self):
        with pytest.raises(SchemaError):
            Schema("emp", ("id",), key=("name",))

    def test_valid_key(self):
        schema = Schema("emp", ("id", "name"), key=("id",))
        assert schema.key == ("id",)


class TestAccess:
    def test_position(self):
        schema = Schema("emp", ("id", "name"))
        assert schema.position("name") == 1

    def test_unknown_attribute(self):
        schema = Schema("emp", ("id",))
        with pytest.raises(SchemaError):
            schema.position("salary")

    def test_positions(self):
        schema = Schema("emp", ("id", "name", "dept"))
        assert schema.positions(("dept", "id")) == (2, 0)


class TestDerivation:
    def test_project(self):
        schema = Schema("emp", ("id", "name", "dept")).project(("dept", "id"))
        assert schema.attributes == ("dept", "id")

    def test_project_unknown_rejected(self):
        with pytest.raises(SchemaError):
            Schema("emp", ("id",)).project(("salary",))

    def test_concat_disjoint(self):
        left = Schema("a", ("x", "y"))
        right = Schema("b", ("z",))
        combined = left.concat(right, "ab")
        assert combined.attributes == ("x", "y", "z")

    def test_concat_clash_prefixes_right(self):
        left = Schema("a", ("x", "y"))
        right = Schema("b", ("y", "z"))
        combined = left.concat(right, "ab")
        assert combined.attributes == ("x", "y", "b_y", "z")

    def test_concat_unresolvable_clash_prefixes_both(self):
        left = Schema("a", ("x", "b_x"))
        right = Schema("b", ("x",))
        combined = left.concat(right, "ab")
        assert len(set(combined.attributes)) == 3

    def test_str(self):
        assert str(Schema("emp", ("id", "name"))) == "emp(id, name)"
