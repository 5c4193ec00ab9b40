"""Columnar batch representation and vectorized kernels.

The tuple engine (:mod:`repro.relational.operators`) holds a relation as a
list of row tuples and pays a Python call per row for every predicate check.
This module holds relations as **per-attribute columns** and runs operators
as **batch kernels** that sweep whole columns in tight generated loops.  The
predicates themselves are the same generated code the tuple engine runs
(:func:`repro.relational.expressions.conjunction_code`): what the batch
layout buys is one call per batch instead of one per row.

Design rules, all load-bearing for correctness:

* **Set semantics are preserved structurally.**  A batch built from a
  :class:`Relation` holds distinct rows; selection and equi-join preserve
  row distinctness (a selected row keeps its identity; a join output row
  is one (left index, right index) pair of distinct inputs), so those
  kernels never re-deduplicate.  Projection can collapse rows and always
  deduplicates.  :meth:`ColumnarBatch.check_invariants` audits the
  distinctness claim — and the differential fuzzer runs it after every
  query, so a kernel that silently produced duplicates cannot survive.
* **Join keys use Python equality.**  The hash table is keyed by raw
  column values, so equal-but-distinct spellings (``1`` vs ``1.0`` vs
  ``True``) land in the same bucket — exactly the equality classes
  :func:`repro.core.rdi.canonical_bindings` dedups by, and exactly what
  the tuple engine's dict-based join does.  Keying by ``(type, repr)``
  would *split* those classes and lose join rows.
* **Both engines run one predicate compiler.**  The filter kernel is a
  second template over the same conjunction shape as the row predicate,
  emitted together with it, so the engines cannot drift apart; the
  hypothesis suite in ``tests/relational/test_columnar_property.py``
  checks both kernels against a reference built from
  :func:`repro.relational.expressions.holds`.

Typed columns: :meth:`ColumnarBatch.compact` converts homogeneous
``int``/``float`` columns to :mod:`array` typed arrays (8 bytes/value,
exposed as zero-copy :func:`memoryview` via
:meth:`ColumnarBatch.memoryview_of`).  ``bool`` is deliberately excluded
— ``array('q')`` would coerce ``True`` to ``1`` and change the value's
type, which the qa row encoding distinguishes.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterator, NamedTuple, Sequence

from repro.common.errors import InvariantViolation, SchemaError
from repro.relational.expressions import (
    Comparison,
    compile_stats,
    conjunction_code,
    predicate_cache_size,
    reset_predicate_cache,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema

__all__ = [
    "ColumnarBatch",
    "CompiledConjunction",
    "compile_batch_predicate",
    "compile_stats",
    "hash_join_batch",
    "predicate_cache_size",
    "project_batch",
    "project_entries_batch",
    "reset_predicate_cache",
    "select_batch",
]


# ---------------------------------------------------------------------------
# the batch representation
# ---------------------------------------------------------------------------


class ColumnarBatch:
    """A relation as parallel per-attribute columns (set semantics).

    Columns are plain Python lists (or typed :mod:`array` arrays after
    :meth:`compact`), all the same length; row ``i`` is
    ``tuple(col[i] for col in columns)``.  Rows are distinct — the
    constructors either receive provably distinct rows or deduplicate.
    """

    __slots__ = ("schema", "columns")

    def __init__(self, schema: Schema, columns: list[Sequence]):
        if len(columns) != schema.arity:
            raise SchemaError(
                f"batch for {schema} needs {schema.arity} columns, got {len(columns)}"
            )
        self.schema = schema
        self.columns = columns

    # -- constructors ----------------------------------------------------------
    @classmethod
    def from_relation(cls, relation: Relation) -> "ColumnarBatch":
        """Pivot an extension into columns (rows are already distinct)."""
        columns = list(map(list, zip(*iter(relation))))
        if not columns:  # empty relation: one empty column per attribute
            columns = [[] for _ in relation.schema.attributes]
        return cls(relation.schema, columns)

    @classmethod
    def from_rows(
        cls, schema: Schema, rows, distinct: bool = False
    ) -> "ColumnarBatch":
        """Build from row tuples; deduplicates unless ``distinct`` vouches."""
        rows = [tuple(row) for row in rows]
        for row in rows:
            if len(row) != schema.arity:
                raise SchemaError(
                    f"row arity {len(row)} does not match schema {schema} "
                    f"(arity {schema.arity})"
                )
        if not distinct:
            rows = list(dict.fromkeys(rows))
        columns = list(map(list, zip(*rows)))
        if not columns:
            columns = [[] for _ in schema.attributes]
        return cls(schema, columns)

    def to_relation(self) -> Relation:
        """The batch as a tuple-engine extension (rows stay distinct)."""
        return Relation.from_distinct_rows(self.schema, list(zip(*self.columns)))

    # -- access ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __iter__(self) -> Iterator[tuple]:
        """Row tuples, lazily — one tuple materialized per pull."""
        return zip(*self.columns)

    @property
    def rows(self) -> list[tuple]:
        """All rows as tuples (a fresh list)."""
        return list(zip(*self.columns))

    def row(self, index: int) -> tuple:
        """One row by position."""
        return tuple(col[index] for col in self.columns)

    def column(self, attribute: str) -> Sequence:
        """One column by attribute name."""
        return self.columns[self.schema.position(attribute)]

    def __eq__(self, other: object) -> bool:
        """Set equality on rows, matching :class:`Relation` semantics."""
        if isinstance(other, ColumnarBatch):
            return (
                self.schema.attributes == other.schema.attributes
                and set(zip(*self.columns)) == set(zip(*other.columns))
            )
        if isinstance(other, Relation):
            return self.to_relation() == other
        return NotImplemented

    def __hash__(self):  # pragma: no cover - batches are mutable
        raise TypeError("ColumnarBatch is mutable and unhashable")

    def __repr__(self) -> str:
        return f"ColumnarBatch({self.schema}, {len(self)} rows)"

    # -- typed columns ---------------------------------------------------------
    def compact(self) -> "ColumnarBatch":
        """Convert homogeneous numeric columns to typed arrays, in place.

        A column of exact ``int`` values (``bool`` excluded — it is an
        ``int`` subclass but a distinct value type) becomes ``array('q')``;
        exact ``float`` becomes ``array('d')``.  Values outside 64-bit
        range keep the column as a plain list.  Returns ``self``.
        """
        for position, column in enumerate(self.columns):
            if isinstance(column, array) or not column:
                continue
            kinds = {type(value) for value in column}
            try:
                if kinds == {int}:
                    self.columns[position] = array("q", column)
                elif kinds == {float}:
                    self.columns[position] = array("d", column)
            except OverflowError:
                continue  # e.g. ints beyond 64 bits: stay a plain list
        return self

    def memoryview_of(self, attribute: str) -> memoryview | None:
        """Zero-copy view of a typed column; None for object columns."""
        column = self.column(attribute)
        if isinstance(column, array):
            return memoryview(column)
        return None

    def estimated_bytes(self) -> int:
        """Size estimate matching :meth:`Relation.estimated_bytes`."""
        total = 0
        for column in self.columns:
            if isinstance(column, array):
                total += 8 * len(column)
                continue
            total += 8 * len(column)
            for value in column:
                if isinstance(value, str) and len(value) > 8:
                    total += 2 * (len(value) - 8)
        return total

    # -- auditing --------------------------------------------------------------
    def check_invariants(self, name: str | None = None) -> None:
        """Audit batch consistency (cheap, read-only).

        Raises :class:`~repro.common.errors.InvariantViolation` on ragged
        columns (unequal lengths), a column-count/arity mismatch, or
        duplicate rows (the structural distinctness claim broken).
        """
        label = name or self.schema.name
        if len(self.columns) != self.schema.arity:
            raise InvariantViolation(
                f"batch {label}: {len(self.columns)} columns but schema "
                f"{self.schema} has arity {self.schema.arity}"
            )
        lengths = {len(column) for column in self.columns}
        if len(lengths) > 1:
            raise InvariantViolation(
                f"batch {label}: ragged columns with lengths {sorted(lengths)}"
            )
        rows = list(zip(*self.columns))
        if len(set(rows)) != len(rows):
            raise InvariantViolation(
                f"batch {label}: {len(rows)} rows but only {len(set(rows))} "
                "distinct — duplicate production"
            )


# ---------------------------------------------------------------------------
# predicate compilation
# ---------------------------------------------------------------------------


class CompiledConjunction(NamedTuple):
    """A conjunction's two generated kernels, bound to its literals."""

    #: Row predicate ``tuple -> bool``.
    row: Callable[[tuple], bool]
    #: Maps a column list to the list of selected row indices.
    filter: Callable[[list], list[int]]
    #: The generated code both came from (shared by the whole shape).
    source: str


def compile_batch_predicate(
    conditions: Sequence[Comparison], schema: Schema
) -> CompiledConjunction:
    """The conjunction's row predicate and column-sweep filter kernel.

    Both come from the one emitter and shape cache in
    :mod:`repro.relational.expressions`, so they cannot disagree with the
    tuple engine's predicates: same code generator, same ``try/except
    TypeError -> False`` around the whole conjunction.  The filter kernel
    sweeps only the referenced columns.
    """
    (make_row, make_filter, source), literals = conjunction_code(conditions, schema)
    return CompiledConjunction(make_row(*literals), make_filter(*literals), source)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _gather(column: Sequence, indices: list[int]) -> list:
    return list(map(column.__getitem__, indices))


def select_batch(
    batch: ColumnarBatch, conditions: Sequence[Comparison]
) -> ColumnarBatch:
    """Vectorized selection: sweep referenced columns, gather survivors.

    Selection preserves row distinctness, so no deduplication happens.  A
    full selection (every row kept) returns the input batch unchanged —
    batches are treated as immutable.
    """
    if not conditions:
        return batch
    compiled = compile_batch_predicate(conditions, batch.schema)
    indices = compiled.filter(batch.columns)
    if len(indices) == len(batch):
        return batch
    return ColumnarBatch(
        batch.schema, [_gather(column, indices) for column in batch.columns]
    )


def project_batch(
    batch: ColumnarBatch, attributes: Sequence[str], name: str | None = None
) -> ColumnarBatch:
    """Projection with duplicate elimination (first occurrence wins).

    Deduplication is by Python equality on the projected row, matching the
    tuple engine's set semantics (``(1,)`` and ``(1.0,)`` collapse, with
    the earliest spelling as the representative).
    """
    schema = batch.schema.project(tuple(attributes), name)
    positions = batch.schema.positions(tuple(attributes))
    if len(positions) == 1:
        kept = list(dict.fromkeys(batch.columns[positions[0]]))
        return ColumnarBatch(schema, [kept])
    projected = zip(*(batch.columns[p] for p in positions))
    kept = list(dict.fromkeys(projected))
    columns = list(map(list, zip(*kept)))
    if not columns:
        columns = [[] for _ in schema.attributes]
    return ColumnarBatch(schema, columns)


def project_entries_batch(
    batch: ColumnarBatch,
    entries: Sequence[tuple[str, object]],
    schema: Schema,
) -> ColumnarBatch:
    """Projection onto ``("const", value)`` / ``("col", position)`` entries.

    This is the combine-stage final projection (pinned constants allowed),
    with the same first-occurrence duplicate elimination as
    :func:`project_batch`.
    """
    length = len(batch)
    columns = [
        [value] * length if kind == "const" else batch.columns[value]
        for kind, value in entries
    ]
    kept = list(dict.fromkeys(zip(*columns)))
    out = list(map(list, zip(*kept)))
    if not out:
        out = [[] for _ in schema.attributes]
    return ColumnarBatch(schema, out)


def hash_join_batch(
    left: ColumnarBatch,
    right: ColumnarBatch,
    pairs: Sequence[tuple[str, str]],
    name: str = "join",
    conditions: Sequence[Comparison] = (),
) -> ColumnarBatch:
    """Equi-join as an index-pair hash join over key columns.

    The build side is the smaller input; the hash table maps raw key
    values (Python equality — the :func:`~repro.core.rdi.canonical_bindings`
    equality classes, so ``1`` joins ``1.0``) to build-row indices.  The
    output is materialized as gathered index lists, so distinct inputs
    yield distinct outputs without re-deduplication.  Extra ``conditions``
    are applied on the combined schema via the compiled-select kernel.
    An empty ``pairs`` degenerates to a (filtered) cross product.
    """
    schema = left.schema.concat(right.schema, name)
    if not pairs:
        left_indices: list[int] = []
        right_indices: list[int] = []
        count_right = len(right)
        for i in range(len(left)):
            left_indices.extend([i] * count_right)
            right_indices.extend(range(count_right))
    else:
        left_positions = left.schema.positions(tuple(p[0] for p in pairs))
        right_positions = right.schema.positions(tuple(p[1] for p in pairs))
        if len(left) <= len(right):
            build, build_positions = left, left_positions
            probe, probe_positions = right, right_positions
            build_is_left = True
        else:
            build, build_positions = right, right_positions
            probe, probe_positions = left, left_positions
            build_is_left = False
        if len(build_positions) == 1:
            build_keys: Sequence = build.columns[build_positions[0]]
            probe_keys: Sequence = probe.columns[probe_positions[0]]
        else:
            build_keys = list(zip(*(build.columns[p] for p in build_positions)))
            probe_keys = list(zip(*(probe.columns[p] for p in probe_positions)))
        count_build = len(build)
        unique = dict(zip(build_keys, range(count_build)))
        if len(unique) == count_build:
            # Unique build keys (no two collapse into one equality class):
            # key -> single index, so the probe is two C-speed sweeps.
            hits = list(map(unique.get, probe_keys))
            probe_indices = [j for j, hit in enumerate(hits) if hit is not None]
            if len(probe_indices) == len(hits):
                build_indices: list[int] = hits
            else:
                build_indices = _gather(hits, probe_indices)
        else:
            table: dict = {}
            for i, key in enumerate(build_keys):
                table.setdefault(key, []).append(i)
            build_indices = []
            probe_indices = []
            get = table.get
            for j, key in enumerate(probe_keys):
                bucket = get(key)
                if bucket is not None:
                    build_indices.extend(bucket)
                    probe_indices.extend([j] * len(bucket))
        if build_is_left:
            left_indices, right_indices = build_indices, probe_indices
        else:
            left_indices, right_indices = probe_indices, build_indices
    columns = [_gather(column, left_indices) for column in left.columns]
    columns += [_gather(column, right_indices) for column in right.columns]
    combined = ColumnarBatch(schema, columns)
    if conditions:
        combined = select_batch(combined, conditions)
    return combined
