"""Mixed-type keys through the local hash join.

The local mirror of ``tests/remote/test_mixed_type_bindings.py``: Python
lets ``1 == 1.0 == True`` while ``1 != "1"`` even though their reprs
collide.  :func:`repro.core.rdi.canonical_bindings` dedups binding sets
by exactly those equality classes, so the local hash join must bucket
keys the same way — a join keyed by ``(type, repr)`` would *split* the
classes and silently lose join rows that the remote semijoin would
produce.
"""

import pytest

from repro.core.rdi import canonical_bindings
from repro.relational.expressions import Col, Comparison, Lit
from repro.relational.operators import join
from repro.relational.relation import Relation, relation_from_columns


KEY = [("key", "key")]


def left_keys():
    return relation_from_columns(
        "l", key=[1, 2, 3, "1", "2"], tag=["a", "b", "c", "d", "e"]
    )


def right_keys():
    return relation_from_columns("r", key=[1.0, "1", True, 2], val=[10, 20, 30, 40])


class TestJoinEqualityClasses:
    def test_float_key_matches_equal_int_key(self):
        out = join(left_keys(), right_keys(), KEY)
        # 1 == 1.0 == True: the int-1 left row matches three right rows.
        assert {(r[2], r[3]) for r in out.rows if r[0] == 1 and r[0] is not True} >= {
            (1.0, 10),
            (True, 30),
        }

    def test_string_key_does_not_match_numeric_key(self):
        out = join(left_keys(), right_keys(), KEY)
        string_matches = {tuple(r) for r in out.rows if r[0] == "1"}
        assert string_matches == {("1", "d", "1", 20)}

    def test_multi_key_equality_classes(self):
        left = relation_from_columns("l", a=[1, "1"], b=[2.0, 2.0])
        right = relation_from_columns("r", a=[1.0, "1"], b=[2, "2"], c=[7, 8])
        got = join(left, right, [("a", "a"), ("b", "b")])
        # (1, 2.0) joins (1.0, 2) — both components collapse by equality —
        # while ("1", 2.0) matches nothing ("2" != 2.0).
        assert set(got.rows) == {(1, 2.0, 1.0, 2, 7)}

    def test_build_side_swap_preserves_equality_classes(self):
        # The join builds on the smaller side; growing one side must
        # never change which equality classes match.
        left = left_keys()
        small = relation_from_columns("r", key=[1.0], val=[99])
        a = join(left, small, KEY)
        b = join(small, left, KEY)
        assert {(r[0], r[1]) for r in a.rows} == {(r[2], r[3]) for r in b.rows}

    def test_same_classes_as_canonical_bindings(self):
        # The join's bucket count for a key column equals the size of the
        # canonical (deduplicated) binding set for that column.
        values = (1, 1.0, True, "1", 2, 2.0, "2")
        canonical = canonical_bindings({"key": values})["key"]
        left = relation_from_columns(
            "l", key=list(values), pos=list(range(len(values)))
        )
        probe = relation_from_columns("r", key=list(canonical))
        out = join(left, probe, KEY)
        # Every left row joins exactly one canonical representative: the
        # classes coincide, neither side splits or merges differently.
        assert len(out) == len(left.rows)


class TestRegressionOneVersusOnePointZero:
    """The headline fix: 1 and 1.0 must land in the same hash bucket."""

    @pytest.mark.parametrize("spelling", [1, 1.0, True])
    def test_each_spelling_probes_the_same_bucket(self, spelling):
        left = relation_from_columns("l", key=[1], tag=["only"])
        right = relation_from_columns("r", key=[spelling], val=[5])
        out = join(left, right, KEY)
        assert len(out) == 1
        assert out.rows[0][:2] == (1, "only")

    def test_distinct_spellings_in_one_column_share_matches(self):
        left = relation_from_columns("l", key=[1, 1.0], tag=["int", "float"])
        # Relation dedups (1,) vs (1.0,)? No: tags differ, rows distinct.
        assert len(left) == 2
        right = relation_from_columns("r", key=[True], val=[5])
        out = join(left, right, KEY)
        assert {tuple(r) for r in out.rows} == {
            (1, "int", True, 5),
            (1.0, "float", True, 5),
        }


#: One NaN object: as a join key it matches itself (dict lookup checks
#: identity first) and no other NaN, in every join implementation alike.
NAN = float("nan")


def nan_left():
    return relation_from_columns("l", key=[NAN, 1, float("nan")], tag=["n", "one", "m"])


def nan_right():
    return relation_from_columns("r", key=[1.0, NAN], val=[10, 20])


def two_column_left():
    return relation_from_columns("l", a=[1, NAN, "1", 2], b=[2.0, 2, 2.0, NAN])


def two_column_right():
    return relation_from_columns(
        "r", a=[1.0, NAN, "1", 2], b=[2, 2.0, "2", NAN], c=[7, 8, 9, 10]
    )


JOINS = {
    "mixed-types": (left_keys, right_keys, KEY, ()),
    "build-side-swap": (right_keys, left_keys, KEY, ()),
    "nan-key": (nan_left, nan_right, KEY, ()),
    "nan-in-a-two-column-key": (
        two_column_left, two_column_right, [("a", "a"), ("b", "b")], (),
    ),
    "empty-left": (lambda: Relation(left_keys().schema), right_keys, KEY, ()),
    "empty-right": (left_keys, lambda: Relation(right_keys().schema), KEY, ()),
    "residual": (
        left_keys, right_keys, KEY, [Comparison(Col("val"), ">", Lit(10))],
    ),
    "residual-between-sides": (
        left_keys, right_keys, KEY, [Comparison(Col("key"), "!=", Col("r_key"))],
    ),
    "cross-product": (nan_left, nan_right, [], [Comparison(Col("val"), "<", Lit(20))]),
}


@pytest.mark.parametrize("case", sorted(JOINS))
class TestBuildSidesAgreeRowForRow:
    def test_either_build_side_yields_the_same_rows(self, case):
        make_left, make_right, pairs, conditions = JOINS[case]
        left, right = make_left(), make_right()
        built_left = join(left, right, pairs, "j", conditions, build_left=True)
        built_right = join(left, right, pairs, "j", conditions, build_left=False)
        built_left.check_invariants()  # join adopts its output: audit the claim
        built_right.check_invariants()
        # Same rows whichever side is hashed; the streamed side sets the order.
        order = {row: i for i, row in enumerate(left)}
        width = left.schema.arity
        assert built_right.rows == sorted(built_left, key=lambda row: order[row[:width]])


def test_nan_key_matches_only_itself():
    out = join(nan_left(), nan_right(), KEY, name="j")
    # The other NaN object of nan_left() finds no partner, not even NAN.
    assert out.rows == [(NAN, "n", NAN, 20), (1, "one", 1.0, 10)]


def test_two_column_key_collapses_by_equality_per_component():
    out = join(two_column_left(), two_column_right(), [("a", "a"), ("b", "b")], name="j")
    assert out.rows == [(1, 2.0, 1.0, 2, 7), (NAN, 2, NAN, 2.0, 8), (2, NAN, 2, NAN, 10)]
