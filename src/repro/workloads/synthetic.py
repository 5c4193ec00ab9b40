"""Parameterized synthetic workloads.

Experiments need workloads whose *shape* is a controlled variable:

* :func:`chain` — relations ``r0..r{k-1}`` with a chain rule joining them,
  for sweeping join width and the interpreted/compiled trade-off;
* :func:`selection_universe` — one wide relation plus a family of
  overlapping selection queries, for sweeping subsumption opportunity.

Everything is seeded and deterministic.
"""

from __future__ import annotations

import random

from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.workloads.workload import Workload


def chain(
    length: int = 3,
    rows_per_relation: int = 100,
    domain: int = 50,
    seed: int = 3,
) -> Workload:
    """Relations r0..r{length-1} and ``chain(X0, Xk) :- r0(X0, X1), ...``."""
    if length < 1:
        raise ValueError("chain length must be >= 1")
    rng = random.Random(seed)
    tables = []
    for index in range(length):
        rows = {
            (rng.randrange(domain), rng.randrange(domain))
            for _ in range(rows_per_relation)
        }
        tables.append(Relation(Schema(f"r{index}", ("a", "b")), sorted(rows)))

    body = ", ".join(f"r{i}(X{i}, X{i + 1})" for i in range(length))
    rules = f"chain(X0, X{length}) :- {body}.\n"
    rules += "short_chain(X0, X1) :- r0(X0, X1).\n"
    database = tuple((f"r{i}", 2) for i in range(length))
    return Workload(
        name=f"chain{length}",
        tables=tables,
        rules=rules,
        database=database,
        example_queries={"chain_from_zero": "chain(0, W)", "whole_chain": "chain(X, Y)"},
        description=f"{length}-way chain join, {rows_per_relation} rows each",
    )


def selection_universe(
    rows: int = 500,
    domain: int = 1000,
    seed: int = 5,
) -> Workload:
    """One wide relation ``item(id, cat, val)`` for selection sweeps.

    ``cat`` is a 10-value category attribute, ``val`` ranges over
    ``[0, domain)`` — overlapping range queries over ``val`` and equality
    queries over ``cat`` give subsumption plenty of opportunity.
    """
    rng = random.Random(seed)
    item_rows = [
        (i, f"cat{rng.randrange(10)}", rng.randrange(domain)) for i in range(rows)
    ]
    tables = [Relation(Schema("item", ("item_id", "cat", "val")), item_rows)]
    rules = """
in_category(I, C) :- item(I, C, V).
valued_over(I, T) :- item(I, C, V), V >= T.
category_sample(I) :- item(I, cat0, V).
"""
    return Workload(
        name="selection-universe",
        tables=tables,
        rules=rules,
        database=(("item", 3),),
        example_queries={"category": "in_category(I, cat0)"},
        description=f"{rows} items over a {domain}-value domain",
    )


def retail_universe(
    rows: int = 300,
    orders: int = 600,
    domain: int = 1000,
    seed: int = 5,
) -> Workload:
    """``item(id, cat, val)`` plus ``ord(item_id, qty)`` for join sweeps.

    Selection queries over ``item`` overlap exactly as in
    :func:`selection_universe`; join queries against ``ord`` all need the
    same scan of ``ord`` shipped from the remote DBMS — the operand an
    operator-level intermediate cache pays for once, where whole-view
    caching re-ships it for every distinct query.
    """
    rng = random.Random(seed)
    item_rows = [
        (i, f"cat{rng.randrange(10)}", rng.randrange(domain)) for i in range(rows)
    ]
    ord_rows = sorted(
        {(rng.randrange(rows), 1 + rng.randrange(9)) for _ in range(orders)}
    )
    tables = [
        Relation(Schema("item", ("item_id", "cat", "val")), item_rows),
        Relation(Schema("ord", ("item_id", "qty")), ord_rows),
    ]
    rules = """
in_category(I, C) :- item(I, C, V).
valued_over(I, T) :- item(I, C, V), V >= T.
item_orders(I, V, Q) :- item(I, C, V), ord(I, Q).
"""
    return Workload(
        name="retail-universe",
        tables=tables,
        rules=rules,
        database=(("item", 3), ("ord", 2)),
        example_queries={"orders": "item_orders(I, V, Q)"},
        description=(
            f"{rows} items, {len(ord_rows)} orders over a "
            f"{domain}-value domain"
        ),
    )
