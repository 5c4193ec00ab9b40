"""Local execution engines behind one interface.

The Execution Monitor's combine stage and full-subsumption derivations
are expressed against this small facade so the CMS can run either engine:

* :class:`TupleEngine` — the original tuple-at-a-time operators from
  :mod:`repro.relational.operators` (the semantic reference);
* :class:`ColumnarEngine` — the vectorized kernels from
  :mod:`repro.relational.columnar` with compiled predicates.

Both engines implement the same relational contract — set semantics,
Python-equality join keys, first-occurrence-ordered duplicate
elimination — and the differential fuzzer's engine axis
(``scripts/braid_fuzz.py --engine both``) holds them to it: every fuzz
case must produce tuple-set-identical answers on both engines and the
direct-evaluation oracle.

An engine works on *handles* (its native relation representation).
``ingest`` converts a materialized :class:`Relation` into a handle,
``materialize`` converts a handle back; the tuple engine's handles are
the relations themselves, so both are identities there.

:func:`combine_parts` is the one combine kernel written against that
facade: the Execution Monitor's combine stage, its degraded (partial)
variant, and the federated interface's gather all fold their parts
through it.
"""

from __future__ import annotations

from repro.common.errors import PlanningError
from repro.caql.eval import result_schema
from repro.caql.psj import ConstProj, PSJQuery
from repro.relational import operators
from repro.relational.columnar import (
    ColumnarBatch,
    hash_join_batch,
    project_entries_batch,
    select_batch,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.core import subsumption

__all__ = [
    "ColumnarEngine",
    "TupleEngine",
    "combine_parts",
    "make_engine",
    "unit_result",
]


class TupleEngine:
    """The tuple-at-a-time reference engine (handles are relations)."""

    name = "tuple"

    def ingest(self, relation: Relation) -> Relation:
        """A relation is already this engine's native handle."""
        return relation

    def materialize(self, handle: Relation) -> Relation:
        """Identity: tuple-engine handles are relations."""
        return handle

    def select(self, handle: Relation, conditions) -> Relation:
        return operators.select(handle, list(conditions))

    def join(
        self, left: Relation, right: Relation, pairs, name: str, conditions=()
    ) -> Relation:
        return operators.join(
            left, right, list(pairs), name=name, conditions=list(conditions)
        )

    def project_entries(self, handle: Relation, entries, schema: Schema) -> Relation:
        return operators.project_entries(handle, list(entries), schema)

    def derive_full(
        self, match, query: PSJQuery, prefiltered: Relation | None = None
    ) -> Relation:
        return subsumption.derive_full(match, query, prefiltered=prefiltered)


class ColumnarEngine:
    """The batch engine: columnar handles, compiled predicates."""

    name = "columnar"

    def ingest(self, relation: Relation) -> ColumnarBatch:
        """Pivot a materialized relation into a columnar batch."""
        if isinstance(relation, ColumnarBatch):
            return relation
        return ColumnarBatch.from_relation(relation)

    def materialize(self, handle) -> Relation:
        """A batch handle back as a plain extension."""
        if isinstance(handle, ColumnarBatch):
            return handle.to_relation()
        return handle

    def select(self, handle: ColumnarBatch, conditions) -> ColumnarBatch:
        return select_batch(handle, list(conditions))

    def join(
        self,
        left: ColumnarBatch,
        right: ColumnarBatch,
        pairs,
        name: str,
        conditions=(),
    ) -> ColumnarBatch:
        return hash_join_batch(
            left, right, list(pairs), name=name, conditions=list(conditions)
        )

    def project_entries(
        self, handle: ColumnarBatch, entries, schema: Schema
    ) -> ColumnarBatch:
        return project_entries_batch(handle, list(entries), schema)

    def derive_full(
        self, match, query: PSJQuery, prefiltered: Relation | None = None
    ) -> ColumnarBatch:
        """Batch analogue of :func:`repro.core.subsumption.derive_full`.

        Same contract: ``prefiltered`` rows are already restricted by the
        residual conditions (the index fast path skips re-selection);
        otherwise residuals run here, on the compiled kernel.
        """
        if not match.is_full or match.projection is None:
            raise ValueError("derive_full requires a full match")
        if prefiltered is not None:
            batch = self.ingest(prefiltered)
        else:
            batch = self.ingest(match.element.extension())
            if match.residual_conditions:
                batch = select_batch(batch, list(match.residual_conditions))
        schema = result_schema(query.name, query.arity)
        if not match.projection:
            return ColumnarBatch.from_rows(
                schema, [(True,)] if len(batch) else [], distinct=True
            )
        entries = [
            ("const", entry.value)
            if isinstance(entry, ConstProj)
            else ("col", batch.schema.position(entry))
            for entry in match.projection
        ]
        return project_entries_batch(batch, entries, schema)


def make_engine(name: str):
    """Engine by name (``tuple`` or ``columnar``)."""
    if name == "tuple":
        return TupleEngine()
    if name == "columnar":
        return ColumnarEngine()
    raise ValueError(f"unknown engine {name!r} (expected 'tuple' or 'columnar')")


def unit_result(query: PSJQuery) -> Relation:
    """The one-row answer of a query that reads no column: its constant
    projection entries, or ``(True,)`` when it projects nothing."""
    row = tuple(
        entry.value if isinstance(entry, ConstProj) else None
        for entry in query.projection
    )
    return Relation(
        result_schema(query.name, query.arity),
        [row] if query.projection else [(True,)],
    )


def combine_parts(engine, parts, conditions, query: PSJQuery, partial: bool = False):
    """Join ``parts`` left to right under ``conditions`` and project to
    ``query``'s answer shape — the combine stage of Section 5.3.3.

    ``parts`` are materialized relations whose attributes are qualified
    query columns (or one ``_exists_*`` column, which simply cross-joins);
    ``conditions`` are the comparisons no part applied by itself.  At each
    join the conditions whose columns have all arrived are consumed: an
    equality with one column on each side drives the hash join, the others
    ride along as residuals; whatever is left is selected at the end.

    With ``partial`` some columns never arrived (a failed remote part, a
    dark backend): conditions over them are dropped and projection entries
    naming them come back ``None`` — the caller tags the answer degraded.
    Otherwise a condition or projection entry over a missing column is a
    planning bug and fails loudly in the engine.

    Returns the result (an engine handle) and the rows the join fold
    touched (every input part plus every join output); the caller charges
    that, plus the result it keeps, at its own rate.
    """
    if not parts:
        raise PlanningError("no parts produced anything to combine")
    pending = list(conditions)
    combined = engine.ingest(parts[0])
    seen_cols = set(combined.schema.attributes)
    touched = len(combined)
    for relation in parts[1:]:
        right_cols = set(relation.schema.attributes)
        pairs, residual, remaining = [], [], []
        for condition in pending:
            cols = condition.columns()
            if cols <= (seen_cols | right_cols):
                left_side = cols & seen_cols
                right_side = cols & right_cols
                if (
                    condition.op == "="
                    and condition.is_col_col()
                    and len(left_side) == 1
                    and len(right_side) == 1
                ):
                    pairs.append((left_side.pop(), right_side.pop()))
                else:
                    residual.append(condition)
            else:
                remaining.append(condition)
        combined = engine.join(
            combined, engine.ingest(relation), pairs,
            name="combine", conditions=residual,
        )
        seen_cols |= right_cols
        touched += len(relation) + len(combined)
        pending = remaining
    if partial:
        pending = [c for c in pending if c.columns() <= seen_cols]
    if pending:
        combined = engine.select(combined, pending)

    schema = result_schema(query.name, query.arity)
    entries: list[tuple[str, object]] = []
    for entry in query.projection:
        if isinstance(entry, ConstProj):
            entries.append(("const", entry.value))
        elif partial and entry not in combined.schema.attributes:
            entries.append(("const", None))  # the missing side had it
        else:
            entries.append(("col", combined.schema.position(entry)))
    if entries:
        return engine.project_entries(combined, entries, schema), touched
    return Relation(schema, [(True,)] if len(combined) else []), touched
