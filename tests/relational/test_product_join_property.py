"""A deferred cross product joins exactly like the built one, row for row.

:class:`repro.relational.operators.Product` stands for ``join(A, B, [])``
without building it, and :func:`repro.relational.operators.join` probes it
factor by factor when each factor carries part of the key.  Row *order* is
part of the contract — cached intermediates and the inference engine's
binding order read it — so the property compares row lists, not sets:
``join(Product(A, B), R, …)`` against ``join(join(A, B, []), R, …)`` over
keys split across the factors or on one factor only, multi-column shares,
mixed-type keys (``1``/``1.0``/``True``/``'1'``), a NaN object, empty
factors, residuals and either build side.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.expressions import Col, Comparison, Lit
from repro.relational.operators import Product, join
from repro.relational.relation import Relation
from repro.relational.schema import Schema

#: One NaN object: as a key it matches itself and no other NaN.
NAN = float("nan")
SOUP = (1, 1.0, True, "1", 2, NAN, None)


@st.composite
def factors(draw, name, attributes):
    arity = draw(st.integers(1, 2))
    rows = draw(st.lists(st.tuples(*[st.sampled_from(SOUP)] * arity), max_size=5))
    return Relation(Schema(name, tuple(attributes[:arity])), rows)


@st.composite
def product_joins(draw):
    """Two factors, a build relation, key pairs, residuals, a build side.

    With ``clash`` every relation names its columns alike, so the product
    and the join schema rename them (``Schema.concat``).  Some build rows
    echo a product row on the key columns, so most joins find matches —
    several per first-factor row, in any order."""
    clash = draw(st.booleans())
    names = {
        rel: [f"x{i}" if clash else f"{rel}{i}" for i in range(4)] for rel in "abr"
    }
    first = draw(factors("a", names["a"]))
    second = draw(factors("b", names["b"]))
    product_attrs = first.schema.concat(second.schema, "ab").attributes
    width = first.schema.arity
    split = draw(st.sampled_from(["both", "both", "both", "first", "second"]))
    candidates = {
        "both": range(len(product_attrs)),
        "first": range(width),
        "second": range(width, len(product_attrs)),
    }[split]
    positions = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=2))
    if split == "both" and len({p < width for p in positions}) < 2:
        positions += [0, len(product_attrs) - 1]
    # Mostly a build column per pair: shares keyed on one column force
    # equal values across the factors.
    fewest = draw(st.sampled_from([len(positions)] * 3 + [1]))
    r_attrs = tuple(names["r"][: draw(st.integers(fewest, 4))])
    columns = draw(st.permutations(range(len(r_attrs))))
    targets = [columns[i % len(columns)] for i in range(len(positions))]
    pairs = [(product_attrs[p], r_attrs[t]) for p, t in zip(positions, targets)]

    value_row = st.tuples(*[st.sampled_from(SOUP)] * len(r_attrs))
    rows = draw(st.lists(value_row, max_size=4))
    products = [a + b for a in first for b in second]
    if products:
        # Echoed backwards, a group lists the second factor's rows in the
        # reverse of their own order.
        indexes = range(len(products))
        echoed = draw(st.one_of(st.just(indexes[::-1]), st.permutations(indexes)))
        for index in echoed[: draw(st.sampled_from([0, 2, 4, 8]))]:
            echo = list(draw(value_row))
            for p, t in zip(positions, targets):
                echo[t] = products[index][p]
            rows.insert(draw(st.integers(0, len(rows))), tuple(echo))
    build = Relation(Schema("r", r_attrs), rows)

    joined = Schema("ab", product_attrs).concat(build.schema, "j").attributes
    conditions = []
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        left = Col(draw(st.sampled_from(joined)))
        right = draw(
            st.one_of(
                st.builds(Col, st.sampled_from(joined)),
                st.builds(Lit, st.sampled_from(SOUP)),
            )
        )
        conditions.append(Comparison(left, draw(st.sampled_from(["=", "!=", "<"])), right))
    build_left = draw(st.sampled_from([None, False, False, True]))
    return first, second, build, pairs, conditions, build_left


def check_product_join(first, second, build, pairs, conditions, build_left):
    built = join(join(first, second, [], "ab"), build, pairs, "j", conditions, build_left)
    deferred = join(Product(first, second, "ab"), build, pairs, "j", conditions, build_left)
    deferred.check_invariants()
    assert deferred.schema == built.schema
    assert deferred.rows == built.rows


@settings(max_examples=400, deadline=None)
@given(product_joins())
def test_a_deferred_product_joins_like_the_built_one(case):
    check_product_join(*case)


def order_case():
    """One first-factor row whose build group lists the second factor's
    rows in the reverse of their own order; the product (4 rows) outsizes
    the build side (3), so the join streams it."""
    first = Relation(Schema("a", ("a0",)), [(1,)])
    second = Relation(Schema("b", ("b0",)), [(10,), (20,), (30,), (40,)])
    build = Relation(
        Schema("r", ("r0", "r1", "r2")), [(1, 20, "p"), (1, 10, "q"), (1, 20.0, "s")]
    )
    return first, second, build, [("a0", "r0"), ("b0", "r1")]


def test_rows_come_in_product_order_not_bucket_order():
    first, second, build, pairs = order_case()
    out = join(Product(first, second, "ab"), build, pairs, "j")
    assert out.rows == [(1, 10, 1, 10, "q"), (1, 20, 1, 20, "p"), (1, 20, 1, 20.0, "s")]
    check_product_join(first, second, build, pairs, [], None)


def test_a_key_spanning_both_factors_never_iterates_the_product(monkeypatch):
    first, second, build, pairs = order_case()

    def refuse(self):
        raise AssertionError("the product was iterated row by row")

    monkeypatch.setattr(Product, "__iter__", refuse)
    assert len(join(Product(first, second, "ab"), build, pairs, "j")) == 3
    # Keyed on one factor only, or hashed as the build side, it is read.
    with pytest.raises(AssertionError, match="row by row"):
        join(Product(first, second, "ab"), build, pairs[:1], "j")
    with pytest.raises(AssertionError, match="row by row"):
        join(Product(first, second, "ab"), build, pairs, "j", build_left=True)


def test_a_product_reads_like_the_relation_it_stands_for():
    first = Relation(Schema("a", ("x",)), [(1,), (2,), (3,)])
    second = Relation(Schema("b", ("x", "y")), [(4, 5), (6, 7)])
    product = Product(first, second, "ab")
    built = join(first, second, [], "ab")
    assert product.schema == built.schema == first.schema.concat(second.schema, "ab")
    assert product.schema.attributes == ("x", "b_x", "y")
    assert len(product) == len(built) == 6
    assert list(product) == built.rows
    assert len(Product(first, Relation(second.schema), "ab")) == 0

