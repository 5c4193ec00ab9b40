"""Relational algebra operators.

Eager operators map :class:`Relation` to :class:`Relation`.  Selection and
the entry projection have pipelined twins (:func:`select_iter`,
:func:`entry_rows`) over a row iterator: the stages
:func:`repro.core.subsumption.derive_full_lazy` composes into the generator
representation of Section 5.1 (a lazy cache element is a
:class:`~repro.relational.generator.GeneratorRelation` over such a source).

All operators use set semantics (matching :class:`Relation`).
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.common.errors import EvaluationError
from repro.relational.expressions import Comparison, compile_conjunction
from repro.relational.relation import Relation
from repro.relational.schema import Schema

# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def select(relation: Relation, conditions: Sequence[Comparison]) -> Relation:
    """Rows of ``relation`` satisfying every condition."""
    predicate = compile_conjunction(conditions, relation.schema)
    # Selection keeps distinct rows distinct and their arity: adopt them.
    return Relation.from_distinct_rows(relation.schema, list(filter(predicate, relation)))


def select_iter(
    rows: Iterable[tuple], schema: Schema, conditions: Sequence[Comparison]
) -> Iterator[tuple]:
    """Pipelined selection."""
    return filter(compile_conjunction(conditions, schema), rows)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


#: The existence rule's row: a part or answer that exposes no columns holds
#: exactly this when its input is non-empty, and nothing when it is empty.
EXISTS_ROW = (True,)


def _only_columns(entries: Sequence[tuple[str, object]]) -> bool:
    return bool(entries) and all(kind == "col" for kind, _value in entries)


def entry_rows(
    rows: Iterable[tuple], entries: Sequence[tuple[str, object]]
) -> Iterator[tuple]:
    """The one row builder, pipelined: each of ``rows`` rebuilt slot by
    slot — entry ``("col", i)`` takes position ``i`` of the source row,
    ``("const", v)`` inserts ``v`` — duplicates and all.  No entries is the
    one existence rule: :data:`EXISTS_ROW` once if ``rows`` yields anything
    (only its first row is pulled), else nothing.
    """
    if not entries:
        return (EXISTS_ROW for _row in islice(rows, 1))
    if not _only_columns(entries):
        return (
            tuple(value if kind == "const" else row[value] for kind, value in entries)
            for row in rows
        )
    # Columns only: cut without a Python-level step per row.
    positions = [position for _kind, position in entries]
    if len(positions) == 1:
        # ``itemgetter`` of one position yields the bare value; ``zip`` of
        # one iterable wraps each in a 1-tuple.
        return zip(map(itemgetter(positions[0]), rows))
    return map(itemgetter(*positions), rows)


def project_entries(
    rows: Iterable[tuple], entries: Sequence[tuple[str, object]], schema: Schema
) -> Relation:
    """:func:`entry_rows` materialized under ``schema``, duplicates dropped
    (first occurrences, in order): how every local finisher turns its last
    input into its result.

    **Adoption.**  When ``rows`` is exactly a :class:`Relation` (distinct
    by type) and the column entries take every one of its columns, the
    projection is injective — two output rows are equal only where their
    input rows were — so the output is adopted without a dedupe pass; the
    identity projection is a plain copy of the row list.  Any other input
    (a list, a product, a generator) is deduplicated as always."""
    if entries and type(rows) is Relation:
        every = range(rows.schema.arity)
        positions = [value for kind, value in entries if kind == "col"]
        if len(positions) == len(entries) and positions == list(every):
            return Relation.from_distinct_rows(schema, list(rows))
        if set(positions) == set(every):
            return Relation.from_distinct_rows(schema, list(entry_rows(rows, entries)))
    projected = entry_rows(rows, entries)
    if _only_columns(entries):
        # Cut by ``itemgetter``: tuples of the right arity already.
        return Relation.from_distinct_rows(schema, distinct_rows(projected))
    return Relation(schema, projected)


def distinct_rows(rows: Iterable[tuple]) -> list[tuple]:
    """The first occurrence of each row, in order: the dedupe pass of a
    projection that may merge rows."""
    return list(dict.fromkeys(rows))


def project(relation: Relation, attributes: Sequence[str], name: str | None = None) -> Relation:
    """Projection onto ``attributes`` (duplicates eliminated)."""
    schema = relation.schema.project(tuple(attributes), name)
    positions = relation.schema.positions(tuple(attributes))
    return project_entries(relation, [("col", p) for p in positions], schema)


def existence_part(rows: Iterable[tuple], label: str) -> Relation:
    """A plan part that exposes no columns, as a relation the combine stage
    can join: one ``_exists_<label>`` column under the existence rule."""
    return project_entries(rows, (), Schema(label, (f"_exists_{label}",)))


# ---------------------------------------------------------------------------
# join
# ---------------------------------------------------------------------------


def split_join_step(
    pending: Iterable[Comparison], left: set[str], right: set[str]
) -> tuple[list[tuple[str, str]], list[Comparison], list[Comparison]]:
    """One step of a left-deep join fold: split the conditions still
    ``pending`` between the columns joined so far (``left``) and the next
    input's (``right``) into hash pairs (an ``=`` with exactly one column
    on each side, as ``(left column, right column)``), residuals whose
    columns have all arrived, and the rest, which wait for a later input.
    """
    pairs, residual, remaining = [], [], []
    arrived = left | right
    for condition in pending:
        cols = condition.columns()
        if not cols <= arrived:
            remaining.append(condition)
            continue
        left_side, right_side = cols & left, cols & right
        if (
            condition.op == "="
            and condition.is_col_col()
            and len(left_side) == len(right_side) == 1
        ):
            pairs.append((left_side.pop(), right_side.pop()))
        else:
            residual.append(condition)
    return pairs, residual, remaining


def _key(schema: Schema, attributes: Sequence[str]) -> Callable[[tuple], object]:
    """The join key of a row: its value on one attribute, a tuple on several.

    Either way keys compare by Python equality (``1``/``1.0``/``True``
    share a bucket, ``'1'`` does not); both sides of a join take their
    getter from equally long attribute lists, so the two forms never meet.
    With no attributes every row has the same key: a cross product.
    """
    return _getter(schema.positions(tuple(attributes)))


def _getter(positions: Sequence[int]) -> Callable[[tuple], object]:
    if not positions:
        return lambda _row: ()
    return itemgetter(*positions)


def _buckets(rows: Iterable[tuple], key: Callable[[tuple], object]) -> dict:
    """The build side of a hash join: rows grouped by key, in row order."""
    table: dict[object, list[tuple]] = {}
    for row in rows:
        table.setdefault(key(row), []).append(row)
    return table


class Product:
    """The cross product of two inputs, not built: read-only, and read like
    the relation ``join(left, right, [])`` would materialize — schema
    ``left.schema.concat(right.schema, name)``, ``len(left) * len(right)``
    rows, first-major order.  :func:`join` streams it factor by factor when
    each factor carries part of the join key, and row by row otherwise.
    """

    __slots__ = ("left", "right", "schema")

    def __init__(self, left, right, name: str):
        self.left = left
        self.right = right
        self.schema = left.schema.concat(right.schema, name)

    def __len__(self) -> int:
        return len(self.left) * len(self.right)

    def __iter__(self) -> Iterator[tuple]:
        return (l + r for l in self.left for r in self.right)


def _probe_product(
    product: Product, right: Relation, pairs: Sequence[tuple[str, str]]
) -> Iterator[tuple] | None:
    """``join(product, right, pairs)`` with ``right`` as the build side,
    row for row and in the same order, without building the product — or
    None unless each factor carries part of the key.

    ``right`` is grouped on the first factor's share of the key, then on
    the second's.  Each first-factor row looks up its group, and the
    second-factor rows whose share is in that group come out in their own
    order: product order, with ``right``'s rows in row order under each.
    Keys split component-wise compare as the whole key does (by Python
    equality per component).
    """
    width = product.left.schema.arity
    positions = product.schema.positions(tuple(attr for attr, _ in pairs))
    first = [(p, attr) for p, (_, attr) in zip(positions, pairs) if p < width]
    second = [(p - width, attr) for p, (_, attr) in zip(positions, pairs) if p >= width]
    if not first or not second:
        return None
    first_key = _getter([p for p, _ in first])
    second_key = _getter([p for p, _ in second])
    right_first = _key(right.schema, [attr for _, attr in first])
    right_second = _key(right.schema, [attr for _, attr in second])
    groups: dict[object, dict[object, list[tuple]]] = {}
    for row in right:
        groups.setdefault(right_first(row), {}).setdefault(right_second(row), []).append(row)
    seconds = list(product.right)
    ordinals: dict[object, list[int]] = {}
    for i, row in enumerate(seconds):
        ordinals.setdefault(second_key(row), []).append(i)

    def rows() -> Iterator[tuple]:
        for a in product.left:
            group = groups.get(first_key(a))
            if group is None:
                continue
            # Ordinals are unique, so the sort never compares buckets.
            hits = sorted(
                (i, bucket) for key, bucket in group.items() for i in ordinals.get(key, ())
            )
            for i, bucket in hits:
                ab = a + seconds[i]
                for r in bucket:
                    yield ab + r

    return rows()


def join(
    left: Relation | Product,
    right: Relation,
    pairs: Sequence[tuple[str, str]],
    name: str = "join",
    conditions: Sequence[Comparison] = (),
    build_left: bool | None = None,
) -> Relation:
    """Equi-join on ``pairs`` of (left attribute, right attribute).

    Implemented as a hash join with the smaller side as the build input.
    ``conditions`` are extra predicates evaluated on the combined schema.
    An empty ``pairs`` degenerates to a (filtered) cross product.

    Result rows come in the order of the *other* (streamed) side, so the
    choice of build side is visible.  A caller that has cut one input down
    to its joining rows passes the ``build_left`` the inputs had before, and
    gets the rows, in the order, the uncut join would have produced.

    ``left`` may be a :class:`Product`: its rows are the ones it reads
    like, so the result is the same; streamed with each factor keyed on
    part of ``pairs``, it is probed per factor and never built.
    """
    schema = left.schema.concat(right.schema, name)
    if not pairs:
        combined: Iterable[tuple] = (l + r for l in left for r in right)
    else:
        left_key = _key(left.schema, [p[0] for p in pairs])
        right_key = _key(right.schema, [p[1] for p in pairs])
        if build_left is None:
            build_left = len(left) <= len(right)
        if build_left:
            matches = _buckets(left, left_key).get
            combined = (l + r for r in right for l in matches(right_key(r), ()))
        elif isinstance(left, Product) and (
            probed := _probe_product(left, right, pairs)
        ) is not None:
            combined = probed
        else:
            matches = _buckets(right, right_key).get
            combined = (l + r for l in left for r in matches(left_key(l), ()))
    if conditions:
        combined = filter(compile_conjunction(conditions, schema), combined)
    # Concatenations of distinct (left row, right row) pairs of fixed
    # arities are distinct rows of the combined arity: adopt them.
    return Relation.from_distinct_rows(schema, list(combined))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

_AGG_FNS: dict[str, Callable[[list], object]] = {
    "count": len,
    "sum": sum,
    "min": min,
    "max": max,
    "avg": lambda values: sum(values) / len(values),
}


def aggregate(
    relation: Relation,
    group_by: Sequence[str],
    aggregations: Sequence[tuple[str, str, str]],
    name: str = "agg",
) -> Relation:
    """Group-by aggregation.

    ``aggregations`` is a list of ``(function, attribute, output_name)``;
    functions are count/sum/min/max/avg.  ``count`` ignores its attribute.
    With an empty ``group_by`` the whole relation is one group (and the
    result has exactly one row, even for an empty input when using count).
    """
    for fn, _attr, _out in aggregations:
        if fn not in _AGG_FNS:
            raise EvaluationError(f"unknown aggregate function {fn!r}")
    group_positions = relation.schema.positions(tuple(group_by))
    agg_positions = [
        relation.schema.position(attr) if fn != "count" else -1
        for fn, attr, _out in aggregations
    ]
    groups: dict[tuple, list[tuple]] = {}
    for row in relation:
        key = tuple(row[i] for i in group_positions)
        groups.setdefault(key, []).append(row)
    if not groups and not group_by:
        groups[()] = []

    out_attrs = tuple(group_by) + tuple(out for _fn, _attr, out in aggregations)
    schema = Schema(name, out_attrs)
    rows = []
    for key, members in groups.items():
        values = []
        for (fn, _attr, _out), position in zip(aggregations, agg_positions):
            column = members if fn == "count" else [row[position] for row in members]
            if fn != "count" and not column:
                raise EvaluationError(f"aggregate {fn} over empty group")
            values.append(_AGG_FNS[fn](column))
        rows.append(key + tuple(values))
    return Relation(schema, rows)


# ---------------------------------------------------------------------------
# fixed point (the paper's specialized operator for compiled DAPs)
# ---------------------------------------------------------------------------


def transitive_closure(relation: Relation, name: str = "closure") -> Relation:
    """Transitive closure of a binary relation (semi-naive iteration).

    This is the "fixed point operator" of Section 2, used by compiled
    inference strategies to evaluate recursively-defined relations
    set-at-a-time instead of unfolding rules tuple-at-a-time.
    """
    if relation.schema.arity != 2:
        raise EvaluationError("transitive closure requires a binary relation")
    schema = Schema(name, relation.schema.attributes)
    closure = Relation(schema, relation)
    successors: dict[object, set[object]] = {}
    for a, b in relation:
        successors.setdefault(a, set()).add(b)
    delta = list(closure)
    while delta:
        new_rows = []
        for a, b in delta:
            for c in successors.get(b, ()):
                candidate = (a, c)
                if candidate not in closure:
                    new_rows.append(candidate)
        delta = [row for row in new_rows if closure.insert(row)]
    return closure
