"""Relation extensions: a schema plus a concrete set of rows.

This is the *extension* representation of Section 5.1 of the paper.  The
*generator* representation lives in :mod:`repro.relational.generator`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.common.errors import InvariantViolation, SchemaError
from repro.relational.schema import Schema


class Relation:
    """An in-memory relation: schema + rows (set semantics, stable order).

    Rows are tuples whose length must match the schema arity.  Duplicate
    rows are silently dropped; insertion order of first occurrences is
    preserved so results are deterministic.

    **The row set is built on the first membership question.**  Only
    :meth:`insert`, ``in`` and ``==`` need to hash rows, so a relation
    adopted by :meth:`from_distinct_rows` or deduplicated by the
    constructor keeps no set until one of them asks: most materialized
    parts are read, sized and cached without any.  :meth:`with_schema`
    builds the owner's set before sharing it, so an owner and its aliases
    always consult one set.

    **Append-only contract.**  :meth:`insert` is the only mutator: a row,
    once in, is never changed, moved or removed, and row values are
    immutable.  :meth:`estimated_bytes` relies on it (it sizes each row
    once), as do ``renamed()`` aliases and a growing
    :class:`~repro.relational.generator.GeneratorRelation` memo, which
    read a shared row list while it is appended to.
    :meth:`check_invariants` recounts from scratch to catch a breach.
    """

    __slots__ = ("schema", "_rows", "_row_set", "_sized_rows", "_sized_bytes")

    def __init__(self, schema: Schema, rows: Iterable[tuple] = ()):
        # Bulk form of ``insert``: the same coercion, arity check and
        # first-occurrence dedupe, one pass each instead of a call per row.
        staged = [row if isinstance(row, tuple) else tuple(row) for row in rows]
        arity = schema.arity
        for row in staged:
            if len(row) != arity:
                raise _arity_error(row, schema)
        distinct = dict.fromkeys(staged)
        self.schema = schema
        self._rows: list[tuple] = list(distinct)
        self._row_set: set[tuple] | None = None
        self._sized_rows = 0
        self._sized_bytes = 0

    # -- mutation ---------------------------------------------------------------
    def insert(self, row: tuple) -> bool:
        """Add a row; returns True if it was new."""
        if not isinstance(row, tuple):
            row = tuple(row)
        if len(row) != self.schema.arity:
            raise _arity_error(row, self.schema)
        members = self._row_set
        if members is None:
            members = self._members()
        if row in members:
            return False
        self._rows.append(row)
        members.add(row)
        return True

    def insert_all(self, rows: Iterable[tuple]) -> int:
        """Add many rows; returns how many were new."""
        return sum(self.insert(row) for row in rows)

    @classmethod
    def from_distinct_rows(cls, schema: Schema, rows: list[tuple]) -> "Relation":
        """Adopt rows known to be distinct tuples of the right arity.

        This is the materialization exit for rows whose distinctness is
        structural — rows re-read from another relation (a selection, a
        copy, a reordering, a re-labelled schema) — so the per-row
        membership and arity checks of :meth:`insert` would be pure
        overhead.  The claim is audited, not assumed:
        :meth:`check_invariants` recounts, and the differential fuzzer runs
        it on every answer stream and every cached relation after each query.
        """
        out = cls.__new__(cls)
        out.schema = schema
        out._rows = rows
        out._row_set = None
        out._sized_rows = 0
        out._sized_bytes = 0
        return out

    def _members(self) -> set[tuple]:
        """The row set, built on first use (see the class docstring)."""
        members = self._row_set
        if members is None:
            members = self._row_set = set(self._rows)
        return members

    # -- access --------------------------------------------------------------------
    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: tuple) -> bool:
        return tuple(row) in self._members()

    def __eq__(self, other: object) -> bool:
        """Set equality: same schema attributes and same rows, any order."""
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.schema.attributes == other.schema.attributes
            and self._members() == other._members()
        )

    def __hash__(self):  # pragma: no cover - relations are mutable
        raise TypeError("Relation is mutable and unhashable")

    def __repr__(self) -> str:
        return f"Relation({self.schema}, {len(self)} rows)"

    @property
    def rows(self) -> list[tuple]:
        """The rows, in stable order (a copy; mutate via insert only)."""
        return list(self._rows)

    def rows_at(self, ordinals: Iterable[int]) -> list[tuple]:
        """The rows at these positions of the stable order (what an index
        bucket of row positions resolves through)."""
        rows = self._rows
        return [rows[i] for i in ordinals]

    def column(self, attribute: str) -> list[object]:
        """All values of one attribute, in row order (with duplicates)."""
        position = self.schema.position(attribute)
        return [row[position] for row in self._rows]

    def distinct_values(self, attribute: str) -> set[object]:
        """The set of distinct values of one attribute."""
        position = self.schema.position(attribute)
        return {row[position] for row in self._rows}

    def sorted_by(self, attributes: list[str] | tuple[str, ...], reverse: bool = False) -> "Relation":
        """A new relation with rows ordered by the given attributes."""
        positions = self.schema.positions(tuple(attributes))
        ordered = sorted(self._rows, key=lambda row: tuple(row[i] for i in positions), reverse=reverse)
        return Relation.from_distinct_rows(self.schema, ordered)

    def with_schema(self, schema: Schema) -> "Relation":
        """The same rows under another schema of the same arity.

        Rows are shared, not copied: the alias reads (and an insert
        through it extends) the owner's append-only row list in place.
        The owner's row set is built first and shared too, so an insert
        through either is seen by both; after that an alias costs O(1)
        whatever the relation's size.
        """
        if schema.arity != self.schema.arity:
            raise SchemaError(f"cannot view {self.schema} as {schema}: arity differs")
        out = Relation.__new__(Relation)
        out.schema = schema
        out._rows = self._rows
        out._row_set = self._members()
        # The sized prefix of a shared append-only list is the alias's too.
        out._sized_rows = self._sized_rows
        out._sized_bytes = self._sized_bytes
        return out

    # -- what a generator is asked too ---------------------------------------------
    #: An extension is a result whose every row has been produced.
    exhausted = True

    def to_extension(self) -> "Relation":
        """The full extension: this relation."""
        return self

    @property
    def produced_count(self) -> int:
        """How many rows have been computed: all of them."""
        return len(self._rows)

    def copy(self) -> "Relation":
        """An independent copy (mutations do not propagate)."""
        return Relation.from_distinct_rows(self.schema, self.rows)

    def estimated_bytes(self) -> int:
        """A coarse size estimate used for cache capacity accounting.

        Counts 8 bytes per field plus 2 per string character beyond 8.
        Precision does not matter; monotonicity with actual size does.

        Incremental: rows are append-only, so each is sized once and a
        call scans only the rows added since the previous one — O(1) when
        nothing was inserted.
        """
        rows = self._rows
        sized = self._sized_rows
        if sized != len(rows):
            self._sized_bytes += rows_bytes(rows[sized:])
            self._sized_rows = len(rows)
        return self._sized_bytes

    def check_invariants(self, label: str | None = None) -> None:
        """Audit set semantics, arity and the size memo.

        This is what holds :meth:`from_distinct_rows` adopters to their
        claim: raises :class:`~repro.common.errors.InvariantViolation` on a
        duplicate row, a non-tuple row, a row of the wrong arity, or an
        :meth:`estimated_bytes` that a recount of the rows disagrees with.
        """
        label = label or f"relation {self.schema.name}"
        arity = self.schema.arity
        for row in self._rows:
            if not isinstance(row, tuple):
                raise InvariantViolation(f"{label}: produced a non-tuple row {row!r}")
            if len(row) != arity:
                raise InvariantViolation(
                    f"{label}: row {row!r} has arity {len(row)}, schema says {arity}"
                )
        # An unbuilt set is counted, not kept: auditing leaves a relation's
        # footprint as it found it.
        members = self._row_set if self._row_set is not None else set(self._rows)
        if len(self._rows) != len(members):
            raise InvariantViolation(
                f"{label}: {len(self._rows)} rows in order but "
                f"{len(members)} distinct — duplicate production"
            )
        # A row mutated in place breaks the append-only contract and would
        # skew cache eviction silently.
        memoized, recount = self.estimated_bytes(), rows_bytes(self._rows)
        if memoized != recount:
            raise InvariantViolation(
                f"{label}: memoized size {memoized} but its rows recount to "
                f"{recount} (rows mutated in place?)"
            )

    def pretty(self, limit: int = 20) -> str:
        """A fixed-width text rendering (for examples and debugging)."""
        header = list(self.schema.attributes)
        shown = self._rows[:limit]
        cells = [[str(v) for v in row] for row in shown]
        widths = [len(h) for h in header]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(header, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if len(self._rows) > limit:
            lines.append(f"... ({len(self._rows) - limit} more rows)")
        return "\n".join(lines)


def rows_bytes(rows: Iterable[tuple]) -> int:
    """The size formula of :meth:`Relation.estimated_bytes`, from scratch."""
    total = 0
    for row in rows:
        total += 8 * len(row)
        for value in row:
            if isinstance(value, str) and len(value) > 8:
                total += 2 * (len(value) - 8)
    return total


def _arity_error(row: tuple, schema: Schema) -> SchemaError:
    return SchemaError(
        f"row arity {len(row)} does not match schema {schema} "
        f"(arity {schema.arity})"
    )


def relation_from_columns(name: str, /, **columns: list) -> Relation:
    """Build a relation from parallel column lists (test/workload helper)."""
    if not columns:
        raise SchemaError("need at least one column")
    lengths = {len(values) for values in columns.values()}
    if len(lengths) != 1:
        raise SchemaError(f"column lengths differ: {sorted(lengths)}")
    schema = Schema(name, tuple(columns))
    rows = zip(*columns.values())
    return Relation(schema, rows)
