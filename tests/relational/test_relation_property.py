"""Property suite: the incremental size estimate ≡ a from-scratch recount.

``Relation.estimated_bytes`` sizes each row once and remembers the total;
that is only right while rows are append-only and aliases share one list.
Hypothesis interleaves every operation that creates a relation or adds a
row — ``insert``, ``estimated_bytes`` itself (which moves the sized
prefix), ``renamed``, ``copy``, ``from_distinct_rows`` — over a pool of
relations, and after every step each relation's memoized size must equal
``rows_bytes`` over its rows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.relation import Relation, rows_bytes
from repro.relational.schema import Schema

SCHEMA = Schema("p", ("a", "b"))

#: Strings on both sides of the 8-character threshold, and non-strings.
values = st.sampled_from(
    [0, 1, 2.5, None, True, "", "x", "x" * 8, "x" * 9, "y" * 23, "längere zeichenkette"]
)
rows = st.tuples(values, values)

steps = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 50), rows),
        st.tuples(st.just("size"), st.integers(0, 50)),
        st.tuples(st.just("renamed"), st.integers(0, 50)),
        st.tuples(st.just("copy"), st.integers(0, 50)),
        st.tuples(st.just("adopt"), st.integers(0, 50)),
    ),
    max_size=40,
)


def assert_sizes_agree(pool):
    for relation in pool:
        recount = rows_bytes(relation.rows)
        assert relation.estimated_bytes() == recount
        assert relation.estimated_bytes() == recount  # and stays put when idle


@settings(max_examples=200, deadline=None)
@given(initial=st.lists(rows, max_size=6), script=steps, check_each_step=st.booleans())
def test_incremental_size_equals_recount(initial, script, check_each_step):
    pool = [Relation(SCHEMA, initial)]
    for step in script:
        target = pool[step[1] % len(pool)]
        if step[0] == "insert":
            target.insert(step[2])
        elif step[0] == "size":
            target.estimated_bytes()
        elif step[0] == "renamed":
            pool.append(
                target.with_schema(Schema(f"alias{len(pool)}", SCHEMA.attributes))
            )
        elif step[0] == "copy":
            pool.append(target.copy())
        else:
            pool.append(Relation.from_distinct_rows(SCHEMA, target.rows))
        # Checking sizes is itself a "size" step on every relation, so half
        # the examples only look at the end and keep stale prefixes alive.
        if check_each_step:
            assert_sizes_agree(pool)
    assert_sizes_agree(pool)
