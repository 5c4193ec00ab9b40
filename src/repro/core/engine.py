"""The local execution engine and the combine kernel written against it.

:class:`TupleEngine` is the four operators the Execution Monitor's combine
stage and full-subsumption derivations run on — the tuple-at-a-time
operators of :mod:`repro.relational.operators` — behind one boundary, so
the wall benchmark can attribute local operator time to an ``engine``
layer.  They work on materialized :class:`Relation`s with the substrate's
contract: set semantics, Python-equality join keys,
first-occurrence-ordered duplicate elimination.  The one exception is the
combine fold's cross product, which stays an unbuilt
:class:`~repro.relational.operators.Product` until a join probes it.

:func:`combine_parts` is the one combine kernel: the Execution Monitor's
combine stage, its degraded (partial) variant, and the loose-coupling
baseline over a federation all fold their parts through it.
"""

from __future__ import annotations

from repro.common.errors import PlanningError
from repro.caql.eval import result_schema
from repro.caql.psj import PSJQuery, projection_entries
from repro.relational import operators
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.core import subsumption

__all__ = [
    "ENGINE",
    "ColumnarEngine",
    "TupleEngine",
    "combine_parts",
    "unit_result",
]


class TupleEngine:
    """The local operators (tuple-at-a-time, on relations)."""

    def select(self, relation: Relation, conditions) -> Relation:
        return operators.select(relation, list(conditions))

    def join(
        self, left: Relation, right: Relation, pairs, name: str, conditions=()
    ) -> Relation:
        return operators.join(
            left, right, list(pairs), name=name, conditions=list(conditions)
        )

    def project_entries(self, relation: Relation, entries, schema: Schema) -> Relation:
        return operators.project_entries(relation, list(entries), schema)

    def derive_full(
        self, match, query: PSJQuery, prefiltered: Relation | None = None
    ) -> Relation:
        return subsumption.derive_full(match, query, prefiltered=prefiltered)


class ColumnarEngine(TupleEngine):
    """No engine of its own: the binding stays because the wall benchmark's
    probe table patches its four methods by name.  A subclass rather than
    an alias, so those patches land here and :class:`TupleEngine`'s
    methods are wrapped once."""


#: The one instance every local derivation and combine fold runs on.
ENGINE = TupleEngine()


def unit_result(query: PSJQuery) -> Relation:
    """The one-row answer of a query that reads no column: its constant
    projection entries over a single empty input row (the existence row
    when it projects nothing)."""
    schema = result_schema(query.name, query.arity)
    return operators.project_entries(
        [()], projection_entries(query.projection, schema), schema
    )


def combine_parts(parts, conditions, query: PSJQuery, partial: bool = False):
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
    planning bug and fails loudly in the operators.  A query that projects
    nothing gets the operators' existence rule like any other finisher.

    A step with no equality and no residual between its two sides is a
    cross product, and it is not built: it yields an
    :class:`~repro.relational.operators.Product`, which the next join
    probes factor by factor when its key spans both factors, and anything
    else reads row by row, in the order the built product would have had.

    Returns the result and the rows the join fold touched: the price of
    the left-deep fold, every input part plus every step's output, a
    product counted at its size whether or not it was built.  The caller
    charges that, plus the result it keeps, at its own rate.
    """
    if not parts:
        raise PlanningError("no parts produced anything to combine")
    pending = list(conditions)
    combined = parts[0]
    seen_cols = set(combined.schema.attributes)
    touched = len(combined)
    for relation in parts[1:]:
        right_cols = set(relation.schema.attributes)
        pairs, residual, pending = operators.split_join_step(
            pending, seen_cols, right_cols
        )
        if pairs or residual:
            combined = ENGINE.join(
                combined, relation, pairs, name="combine", conditions=residual
            )
        else:
            # Nothing to check between the two: defer the product to the
            # join that keys on it (or to whatever reads it last).
            combined = operators.Product(combined, relation, "combine")
        seen_cols |= right_cols
        touched += len(relation) + len(combined)
    if partial:
        pending = [c for c in pending if c.columns() <= seen_cols]
    if pending:
        combined = ENGINE.select(combined, pending)

    entries = projection_entries(query.projection, combined.schema, partial)
    schema = result_schema(query.name, query.arity)
    return ENGINE.project_entries(combined, entries, schema), touched
