"""Tests for hash indexes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.index import HashIndex, IndexSet
from repro.relational.relation import Relation, relation_from_columns
from repro.relational.schema import Schema


def make_emp():
    return relation_from_columns(
        "emp",
        id=[1, 2, 3, 4],
        name=["ann", "bob", "cat", "dan"],
        dept=["hw", "sw", "sw", "hw"],
    )


class TestHashIndex:
    def test_lookup_single_attribute(self):
        index = HashIndex(make_emp(), ("dept",))
        assert len(index.lookup(("sw",))) == 2

    def test_lookup_scalar_convenience(self):
        index = HashIndex(make_emp(), ("dept",))
        assert len(index.lookup("sw")) == 2

    def test_lookup_missing_key(self):
        index = HashIndex(make_emp(), ("dept",))
        assert index.lookup(("xx",)) == []

    def test_composite_key(self):
        index = HashIndex(make_emp(), ("dept", "name"))
        assert index.lookup(("sw", "bob")) == [(2, "bob", "sw")]

    def test_contains(self):
        index = HashIndex(make_emp(), ("dept",))
        assert ("sw",) in index
        assert ("xx",) not in index

    def test_key_count(self):
        index = HashIndex(make_emp(), ("dept",))
        assert index.key_count == 2

    def test_lookup_returns_rows_in_relation_order(self):
        index = HashIndex(make_emp(), ("dept",))
        assert index.lookup("hw") == [(1, "ann", "hw"), (4, "dan", "hw")]

    def test_lookup_any_merges_buckets_in_relation_order(self):
        emp = make_emp()
        index = HashIndex(emp, ("name",))
        keys = [("dan",), ("ann",), ("zed",), ("cat",), ("ann",)]
        assert index.lookup_any(keys) == [emp.rows[0], emp.rows[2], emp.rows[3]]
        assert index.lookup_any([]) == []

    def test_lookup_any_keys_meet_rows_by_python_equality(self):
        nan = float("nan")
        soup = relation_from_columns(
            "soup", k=[1, "1", 1.0, True, nan, float("nan"), None], n=list(range(7))
        )
        index = HashIndex(soup, ("k",))
        assert [n for _k, n in index.lookup_any([(1.0,)])] == [0, 2, 3]
        assert [n for _k, n in index.lookup_any([("1",), (None,)])] == [1, 6]
        assert [n for _k, n in index.lookup_any([(nan,)])] == [4]
        assert index.lookup_any([(float("nan"),)]) == []

    def test_is_current_until_the_relation_grows(self):
        emp = make_emp()
        index = HashIndex(emp, ("dept",))
        assert index.is_current
        assert not emp.insert((1, "ann", "hw")) and index.is_current  # a duplicate
        emp.insert((5, "eve", "sw"))
        assert not index.is_current
        assert len(index.lookup("sw")) == 2  # a snapshot of the rows it indexed


class TestIndexSet:
    def test_ensure_builds_once(self):
        indexes = IndexSet(make_emp())
        first = indexes.ensure(("dept",))
        second = indexes.ensure(("dept",))
        assert first is second
        assert len(indexes) == 1

    def test_get_absent(self):
        indexes = IndexSet(make_emp())
        assert indexes.get(("dept",)) is None

    def test_a_grown_relation_is_never_served_from_a_stale_index(self):
        emp = make_emp()
        indexes = IndexSet(emp)
        stale = indexes.ensure(("dept",))
        emp.insert((5, "eve", "sw"))
        for fresh in (
            indexes.ensure(("dept",)),
            indexes.get(("dept",)),
            indexes.find_covering({"dept", "name"}),
        ):
            assert fresh is not stale and fresh.is_current
            assert fresh.lookup("sw")[-1] == (5, "eve", "sw")
        # Rebuilt once, not on every call.
        assert indexes.ensure(("dept",)) is indexes.get(("dept",))
        assert len(indexes) == 1

    def test_find_covering_subset(self):
        indexes = IndexSet(make_emp())
        indexes.ensure(("dept",))
        found = indexes.find_covering({"dept", "name"})
        assert found is not None
        assert found.attributes == ("dept",)

    def test_find_covering_prefers_widest(self):
        indexes = IndexSet(make_emp())
        indexes.ensure(("dept",))
        indexes.ensure(("dept", "name"))
        found = indexes.find_covering({"dept", "name"})
        assert found.attributes == ("dept", "name")

    def test_find_covering_none(self):
        indexes = IndexSet(make_emp())
        indexes.ensure(("dept",))
        assert indexes.find_covering({"name"}) is None


#: A NaN equals nothing, itself included, but containers check identity
#: first: the NaN object finds the rows holding that very object.
NAN = float("nan")
#: ``1``/``1.0``/``True`` are one key, ``"1"`` another.
SOUP = [1, 1.0, True, "1", NAN, 0, None]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(SOUP), st.sampled_from(SOUP)), max_size=12),
    st.lists(st.sampled_from(SOUP), max_size=3),
    st.sampled_from([("a",), ("b", "a"), ("a", "b")]),
)
def test_lookup_any_returns_scan_order(rows, wanted, attributes):
    relation = Relation(Schema("r", ("a", "b")), rows)
    index = HashIndex(relation, attributes)
    keys = [(value,) * len(attributes) for value in wanted]
    positions = relation.schema.positions(attributes)
    allowed = set(keys)
    scan = [row for row in relation if tuple(row[p] for p in positions) in allowed]
    assert index.lookup_any(keys) == scan
    if keys:  # one key at a time: its bucket, as the scan finds it
        assert index.lookup_any(keys[:1]) == [
            row for row in relation if tuple(row[p] for p in positions) in {keys[0]}
        ]
