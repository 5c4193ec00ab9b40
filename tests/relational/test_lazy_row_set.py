"""A relation's row set is built on the first membership question.

Two halves:

* **Count tests.**  Rows are a ``tuple`` subclass that counts ``__hash__``
  calls.  Adopting distinct rows (``Relation.from_distinct_rows``, and
  ``operators.select``, which adopts its survivors) hashes none of them;
  the constructor hashes each row exactly once (its one dedupe);
  ``with_schema`` builds the owner's set once and then shares it, so a
  further alias hashes nothing.
* **Model test.**  Random sequences of ``insert``, ``in``, ``==``,
  ``with_schema`` (then inserts through owner or alias),
  ``from_distinct_rows`` followed by inserts, and ``check_invariants`` on a
  planted duplicate, against an eager reference: per group of relations
  sharing one row list, a list and a set kept in step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import InvariantViolation
from repro.relational.expressions import Col, Comparison, Lit
from repro.relational.operators import select
from repro.relational.relation import Relation
from repro.relational.schema import Schema

SCHEMA = Schema("r", ("a", "b"))
OTHER = Schema("s", ("c", "d"))


class Hashed(tuple):
    """A row that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        Hashed.hashes += 1
        return tuple.__hash__(self)


def hashed_rows(n: int) -> list[Hashed]:
    return [Hashed((i, i % 7)) for i in range(n)]


@pytest.fixture(autouse=True)
def reset_count():
    Hashed.hashes = 0


def check_an_alias_insert_is_seen_by_the_owner(rows):
    """Inserts through an alias of an unbuilt owner, either side asking a
    membership question in between: both sides see every row, once."""
    owner = Relation.from_distinct_rows(SCHEMA, list(rows))
    alias = owner.with_schema(OTHER)
    assert alias.insert((-1, 0)) and (-1, 0) in owner
    assert alias.insert((-2, 0)) and (-2, 0) in owner
    assert not owner.insert((-2, 0)) and owner.insert((-3, 0)) and (-3, 0) in alias
    assert len(owner) == len(alias) == len(rows) + 3


@pytest.mark.parametrize("n", [1, 50])
class TestHashCounts:
    def test_from_distinct_rows_hashes_nothing(self, n):
        relation = Relation.from_distinct_rows(SCHEMA, hashed_rows(n))
        assert len(relation) == n and relation.estimated_bytes() > 0
        assert Hashed.hashes == 0

    def test_select_hashes_nothing(self, n):
        relation = Relation.from_distinct_rows(SCHEMA, hashed_rows(n))
        kept = select(relation, [Comparison(Col("a"), ">=", Lit(0))])
        assert len(kept) == n
        assert Hashed.hashes == 0

    def test_the_constructor_hashes_each_row_once(self, n):
        rows = hashed_rows(n)
        relation = Relation(SCHEMA, rows + rows[:1])
        assert len(relation) == n
        assert Hashed.hashes == n + 1  # the repeated row is hashed again, and dropped

    def test_with_schema_hashes_nothing_once_the_owner_set_exists(self, n):
        owner = Relation.from_distinct_rows(SCHEMA, hashed_rows(n))
        owner.insert((n, 0))
        Hashed.hashes = 0
        alias = owner.with_schema(OTHER)
        assert Hashed.hashes == 0
        assert alias.insert((n + 1, 0)) and (n + 1, 0) in owner

    def test_with_schema_builds_an_unbuilt_owner_set_once(self, n):
        owner = Relation.from_distinct_rows(SCHEMA, hashed_rows(n))
        owner.with_schema(OTHER)
        assert Hashed.hashes == n
        owner.with_schema(OTHER)
        assert Hashed.hashes == n

    def test_an_alias_insert_is_seen_by_the_owner(self, n):
        check_an_alias_insert_is_seen_by_the_owner(hashed_rows(n))

    def test_the_audit_counts_without_keeping_a_set(self, n):
        relation = Relation.from_distinct_rows(SCHEMA, hashed_rows(n))
        relation.check_invariants()
        assert relation._row_set is None


ROWS = st.tuples(st.integers(0, 3), st.integers(0, 2))
#: Which relation an operation addresses (modulo how many there are): a
#: small range, so that owners and their aliases are addressed in turn.
WHICH = st.integers(0, 3)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), WHICH, ROWS),
        st.tuples(st.just("in"), WHICH, ROWS),
        st.tuples(st.just("eq"), WHICH, WHICH),
        st.tuples(st.just("alias"), WHICH, st.booleans()),
        st.tuples(st.just("adopt"), st.lists(ROWS, max_size=6, unique=True)),
        st.tuples(st.just("plant"), WHICH, st.booleans()),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ROWS, max_size=6), OPERATIONS)
def test_the_lazy_set_follows_an_eager_reference(initial, operations):
    # Each relation, with the index of its group: relations in one group
    # share a row list (an owner and its aliases).
    relations = [Relation(SCHEMA, initial)]
    groups = [0]
    model = [(list(dict.fromkeys(initial)), set(initial))]
    for operation in operations:
        kind = operation[0]
        if kind == "insert":
            _, i, row = operation
            i %= len(relations)
            rows, members = model[groups[i]]
            assert relations[i].insert(row) == (row not in members)
            if row not in members:
                rows.append(row)
                members.add(row)
        elif kind == "in":
            _, i, row = operation
            i %= len(relations)
            assert (row in relations[i]) == (row in model[groups[i]][1])
        elif kind == "eq":
            _, i, j = operation
            i, j = i % len(relations), j % len(relations)
            expected = (
                relations[i].schema.attributes == relations[j].schema.attributes
                and model[groups[i]][1] == model[groups[j]][1]
            )
            assert (relations[i] == relations[j]) == expected
        elif kind == "alias":
            _, i, renamed = operation
            i %= len(relations)
            relations.append(relations[i].with_schema(OTHER if renamed else SCHEMA))
            groups.append(groups[i])
        elif kind == "adopt":
            rows = operation[1]
            relations.append(Relation.from_distinct_rows(SCHEMA, list(rows)))
            groups.append(len(model))
            model.append((list(rows), set(rows)))
        else:
            _, i, built = operation
            i %= len(relations)
            if not len(relations[i]):
                continue
            planted = relations[i].copy()
            if built:
                assert planted._rows[0] in planted
            planted._rows.append(planted._rows[0])  # bypass the dedupe
            with pytest.raises(InvariantViolation, match="duplicate"):
                planted.check_invariants()
        for relation, group in zip(relations, groups):
            assert list(relation) == model[group][0]
            relation.check_invariants()
