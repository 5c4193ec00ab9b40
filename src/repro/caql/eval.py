"""Evaluation of PSJ queries and conjunctive CAQL queries over relations.

The eager evaluator of PSJ plans against in-memory relations (the
baselines' query processor, and the oracle the CMS's answers are compared
with), plus the CAQL operations a conventional remote DBMS lacks (evaluable
functions, AGG/SETOF) on top of the conjunctive core.  Lazy, generator-form
results are :func:`repro.core.subsumption.derive_full_lazy`'s job.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Sequence

from repro.common.errors import EvaluationError, TranslationError
from repro.logic.builtins import BuiltinRegistry
from repro.logic.terms import Atom, Const, Substitution, Var
from repro.relational.expressions import Comparison, Lit, holds, keep
from repro.relational.operators import aggregate as relational_aggregate
from repro.relational.operators import join, select
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.caql.ast import (
    COMPARISON_PREDS,
    AggregateQuery,
    ConjunctiveQuery,
    SetOfQuery,
)
from repro.caql.implication import comparability_kind, occurrences_by_relation
from repro.caql.psj import _OP_MAP, ConstProj, PSJQuery, psj_from_literals

#: Resolves a base-relation name to its extension (cache lookup).
RelationLookup = Callable[[str], Relation]


def result_schema(name: str, arity: int) -> Schema:
    """The schema of a query result: positional attributes ``a0..``."""
    return Schema(name, tuple(f"a{i}" for i in range(max(arity, 1))))


# ---------------------------------------------------------------------------
# eager PSJ evaluation
# ---------------------------------------------------------------------------


def evaluate_psj(psj: PSJQuery, lookup: RelationLookup) -> Relation:
    """Eagerly evaluate a PSJ query; returns the result extension.

    Occurrences are loaded through ``lookup``, selections are pushed down,
    joins run left-to-right with hash joins on applicable equalities, and
    the projection (with pinned constants) produces positional attributes.
    """
    schema = result_schema(psj.name, psj.arity)
    if psj.unsatisfiable:
        return Relation(schema)
    combined = _joined_relation(psj, lookup)
    return _project_result(combined, psj, schema)


def _occurrence_relation(psj: PSJQuery, occ, lookup: RelationLookup) -> Relation:
    base = lookup(occ.pred)
    if base.schema.arity != occ.arity:
        raise EvaluationError(
            f"relation {occ.pred} has arity {base.schema.arity}, query expects {occ.arity}"
        )
    schema = Schema(occ.tag, tuple(occ.columns()))
    renamed = Relation(schema, iter(base))
    local = psj.column_conditions(occ.tag)
    if local:
        renamed = select(renamed, local)
    return renamed


def _joined_relation(psj: PSJQuery, lookup: RelationLookup) -> Relation:
    if not psj.occurrences:
        # A query with no relation occurrences has one empty row (its
        # conditions were constant-folded during normalization).
        return Relation(Schema("unit", ("_unit",)), [(None,)])

    consumed: set[Comparison] = set()
    for occ in psj.occurrences:
        consumed.update(psj.column_conditions(occ.tag))

    combined = _occurrence_relation(psj, psj.occurrences[0], lookup)
    seen_cols = set(combined.schema.attributes)
    pending = [c for c in psj.conditions if c not in consumed]
    # The same step split as ``operators.split_join_step``, spelled out on
    # purpose: this is the oracle the engines are checked against, and a
    # reference must not share the code it checks.
    for occ in psj.occurrences[1:]:
        right = _occurrence_relation(psj, occ, lookup)
        right_cols = set(right.schema.attributes)
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
        combined = join(combined, right, pairs, name="join", conditions=residual)
        seen_cols |= right_cols
        pending = remaining
    if pending:
        combined = select(combined, pending)
    return combined


def _project_result(combined: Relation, psj: PSJQuery, schema: Schema) -> Relation:
    positions: list[tuple[str, object]] = []
    for entry in psj.projection:
        if isinstance(entry, ConstProj):
            positions.append(("const", entry.value))
        else:
            positions.append(("col", combined.schema.position(entry)))
    if not positions:
        # Boolean query: non-empty input -> single "yes" row.
        rows = [(True,)] if len(combined) else []
        return Relation(schema, rows)
    out_rows = (
        tuple(value if kind == "const" else row[value] for kind, value in positions)
        for row in combined
    )
    return Relation(schema, out_rows)


# ---------------------------------------------------------------------------
# conjunctive CAQL queries (PSJ core + evaluable functions)
# ---------------------------------------------------------------------------


def split_literals(
    query: ConjunctiveQuery, builtins: BuiltinRegistry
) -> tuple[list[Atom], list[Atom], list[Atom]]:
    """Partition body literals into (relations, comparisons, evaluable).

    Every translation — the CMS's, the baselines', ``explain``'s and the
    oracle's — starts here, so this is where the two literals no PSJ
    condition can express are refused: a negated one (the conjunctive core
    is negation-free; dropping it, or joining it positively, answers a
    different query) and a comparison predicate that is not binary.
    """
    relations, comparisons, evaluable = [], [], []
    for literal in query.literals:
        if literal.negated:
            raise TranslationError(
                f"negated literal {literal} in {query.name}: "
                "CAQL's conjunctive core is negation-free"
            )
        if literal.pred in COMPARISON_PREDS:
            if literal.arity != 2:
                raise TranslationError(
                    f"comparison {literal} in {query.name} takes two "
                    f"arguments, not {literal.arity}"
                )
            comparisons.append(literal)
        elif builtins.is_builtin(literal):
            evaluable.append(literal)
        else:
            relations.append(literal)
    return relations, comparisons, evaluable


class Slot(NamedTuple):
    """A shape's stand-in for one constant of a query: its index in the
    constants an ask binds (:func:`_skeleton`'s order) and its
    comparability kind.  A template's conditions and pinned answers hold
    slots where a query holds values."""

    index: int
    kind: str


def _skeleton(query: ConjunctiveQuery) -> tuple[tuple, list, list[str]]:
    """A query's constant-free skeleton, its constants and its variable
    names.

    The skeleton is flat: the literal count, then per literal its
    predicate, its arity (bitwise-negated when the literal is negated)
    and each argument — a variable as its number by first occurrence, a
    constant as its comparability kind — then the answers alike.  Numbers
    are ints and kinds are strings, so no two shapes spell the same.
    Constants and variable names come out in slot and number order.
    """
    numbers: dict[str, int] = {}
    values: list = []
    literals = query.literals
    parts: list = [len(literals)]
    part, constant, number_of = parts.append, values.append, numbers.setdefault
    for literal in literals:
        args = literal.args
        part(literal.pred)
        part(~len(args) if literal.negated else len(args))
        for arg in args:
            if type(arg) is Var:
                part(number_of(arg.name, len(numbers)))
            else:
                constant(arg.value)
                part(comparability_kind(arg.value))
    for arg in query.answers:
        if type(arg) is Var:
            part(numbers[arg.name])
        else:
            constant(arg.value)
            part(comparability_kind(arg.value))
    return tuple(parts), values, list(numbers)


class ShapePlan:
    """Everything answering a query of one shape needs that no constant
    changes: a prepared CAQL query (the paper's IE-query is "an instance
    of one of the view specifications with constant bindings", §5.3.1).

    Built once per shape from the template — the shape's translation with
    every constant a :class:`Slot` — it holds the PSJ template and, from
    the canonicalizer, the fold's classes and the key's constant-free
    fragments (:class:`repro.core.canonical.FormPlan`).  :meth:`bind`
    makes one ask's ``PSJQuery`` and carries its ``CanonicalForm`` on it;
    both are what ``_translate`` and a from-scratch canonicalization give
    (``audit_canonical`` checks the form).
    """

    __slots__ = (
        "occurrences", "relations", "conditions", "slotted", "projection", "pinned",
        "var_numbers", "var_columns", "checks", "form",
    )

    def __init__(self, template: PSJQuery, checks: tuple):
        from repro.core.canonical import FormPlan  # repro.core imports this module

        self.occurrences = template.occurrences
        self.relations = None  # :meth:`by_relation`, built on first need
        self.conditions = template.conditions
        #: ``(condition position, column, op, slot index)`` per
        #: column-vs-literal condition: the literal the slot binds.
        self.slotted = tuple(
            (position, condition.left, condition.op, condition.right.value.index)
            for position, condition in enumerate(template.conditions)
            if type(condition.right) is Lit
        )
        self.projection = template.projection
        self.pinned = tuple(
            (position, entry.value.index)
            for position, entry in enumerate(template.projection)
            if isinstance(entry, ConstProj)
        )
        #: Each variable's number (template names are numbers) and its
        #: columns, in ``var_columns`` order.
        self.var_numbers = tuple(int(name) for name, _cols in template.var_columns)
        self.var_columns = tuple(cols for _name, cols in template.var_columns)
        #: ``(slot, op, slot)`` per comparison of two constants, which
        #: translation folds away: the query is empty when one fails.
        self.checks = checks
        self.form = FormPlan(template)

    def by_relation(self) -> dict:
        """The occurrences by relation, as every containment probe of an
        ask of this shape reads them (:func:`occurrences_by_relation`)."""
        if self.relations is None:
            self.relations = occurrences_by_relation(self.occurrences)
        return self.relations

    def bind(self, name: str, values: list, names: list[str]) -> PSJQuery:
        """The PSJ query of the ask whose constants are ``values`` and
        whose variables are ``names``, its canonical form carried and its
        shape (this plan) named, which the subsumption probe keys its
        match plans by."""
        conditions = self.conditions
        if self.slotted:
            conditions = list(conditions)
            for position, column, op, slot in self.slotted:
                conditions[position] = Comparison(column, op, Lit(values[slot]))
            conditions = tuple(conditions)
        projection = self.projection
        if self.pinned:
            projection = list(projection)
            for position, slot in self.pinned:
                projection[position] = ConstProj(values[slot])
            projection = tuple(projection)
        unsatisfiable = False
        for left, op, right in self.checks:
            if not holds(values[left], op, values[right]):
                unsatisfiable = True
        # The fields ``PSJQuery.__init__`` sets, without its check that the
        # tags are distinct: the template's were checked when it was built.
        psj = object.__new__(PSJQuery)
        psj.__dict__.update(
            name=name,
            occurrences=self.occurrences,
            conditions=conditions,
            projection=projection,
            var_columns=tuple(zip(map(names.__getitem__, self.var_numbers), self.var_columns)),
            unsatisfiable=unsatisfiable,
            _canonical=self.form.bind(values, projection, unsatisfiable),
            _shape=self,
        )
        return psj


def _plan_shape(
    query: ConjunctiveQuery, registry: BuiltinRegistry, values: list
) -> ShapePlan | None:
    """The shape plan of ``query``'s shape, or None for a shape that is
    translated per ask: one with an evaluable residue, or one whose
    translation fails (it fails for every ask of the shape, each with its
    own names in the message)."""
    slots = iter([Slot(index, comparability_kind(value)) for index, value in enumerate(values)])
    numbers: dict[str, Var] = {}

    def template(term):
        if type(term) is Var:
            var = numbers.get(term.name)
            if var is None:
                var = numbers[term.name] = Var(str(len(numbers)))
            return var
        return Const(next(slots))

    literals = [
        Atom(literal.pred, tuple(template(arg) for arg in literal.args), literal.negated)
        for literal in query.literals
    ]
    answers = tuple(template(term) for term in query.answers)
    checks = tuple(
        (literal.args[0].value.index, _OP_MAP[literal.pred], literal.args[1].value.index)
        for literal in literals
        if literal.pred in _OP_MAP
        and len(literal.args) == 2
        and all(type(arg) is Const for arg in literal.args)
    )
    try:
        psj, _core_vars, evaluable = _translate(
            ConjunctiveQuery(query.name, answers, tuple(literals)), registry
        )
    except TranslationError:
        return None
    if evaluable:
        return None
    return ShapePlan(psj, checks)


#: ``(skeleton, registry signatures)`` -> the shape's plan, or None for a
#: shape translated per ask.  The signatures are in the key because which
#: literals are evaluable is the one thing translation reads of the
#: registry.  At most ``SHAPE_BOUND`` of them (:func:`keep`); a plan holds
#: no query, only its template and key fragments (a few KB).
_shapes: dict[tuple, ShapePlan | None] = {}


def core_plan(
    query: ConjunctiveQuery, registry: BuiltinRegistry
) -> tuple[PSJQuery, tuple[Var, ...], tuple[Atom, ...]]:
    """Split a conjunctive query into its PSJ core and evaluable residue.

    Variables bound by relation literals ("core variables") flow out of the
    PSJ projection; evaluable literals then run row-wise and may *produce*
    further bindings (e.g. ``S`` in ``plus(A, 1, S)``).  Returns the core
    PSJ query (projecting the core variables in a fixed order), that order,
    and the evaluable literals.

    With no evaluable residue the core *is* the query: the PSJ projects
    ``query.answers`` as they stand (constants included) and there is no
    core-variable order to thread, so callers answer it directly — one
    translation per query, and this is the only place the CMS does it.

    A query is translated once per *shape* (:func:`_skeleton`): the first
    ask of a shape builds its :class:`ShapePlan`, and every ask binds its
    constants and variable names into it — no translation and no fold of
    the query's structure, only of its constants.  A shape with an
    evaluable residue is translated per ask (:func:`_translate`).

    A re-asked query *object* (the IE asks instances of its view
    specifications again and again) carries its result from the second
    ask on, for as long as the registry's signatures are the ones it was
    split under, so every later ask is a dict probe and gets the same
    frozen ``PSJQuery`` back (the result is shared, hence tuples).  A
    first ask leaves only a mark, so a stream of one-shot queries keeps
    no PSJ alive.  (A view's generalized form is asked here too, and
    carried on the view's definition by ``QueryPlanner.generalization_of``.)
    """
    signatures = registry.signatures
    carried = query.__dict__.get("_core")
    if carried is not None and carried[1] is not None and (
        carried[0] is signatures or carried[0] == signatures
    ):
        return carried[1]
    skeleton, values, names = _skeleton(query)
    key = (skeleton, signatures)
    plan = _shapes.get(key, False)
    if plan is False:
        plan = keep(_shapes, key, _plan_shape(query, registry, values))
    if plan is None:
        result = _translate(query, registry)
    else:
        result = (plan.bind(query.name, values, names), (), ())
    query.__dict__["_core"] = (signatures, None if carried is None else result)
    return result


def _translate(
    query: ConjunctiveQuery, registry: BuiltinRegistry
) -> tuple[PSJQuery, tuple[Var, ...], tuple[Atom, ...]]:
    """:func:`core_plan` from scratch, with no table in front."""
    relations, comparisons, evaluable = split_literals(query, registry)
    if not evaluable:
        psj = psj_from_literals(query.name, relations, comparisons, query.answers)
        return psj, (), ()
    relation_bound: set[Var] = set()
    for literal in relations:
        relation_bound |= literal.variables()

    core_vars: list[Var] = []
    seen: set[Var] = set()
    for term in query.answers:
        if isinstance(term, Var) and term in relation_bound and term not in seen:
            seen.add(term)
            core_vars.append(term)
    for literal in evaluable:
        for var in literal.variables():
            if var in relation_bound and var not in seen:
                seen.add(var)
                core_vars.append(var)

    psj = psj_from_literals(query.name, relations, comparisons, tuple(core_vars))
    return psj, tuple(core_vars), tuple(evaluable)


def psj_of(query: ConjunctiveQuery, builtins: BuiltinRegistry | None = None) -> PSJQuery:
    """The PSJ core of a conjunctive query.

    Without evaluable literals this is the full query in PSJ form (answers
    and all).  With evaluable literals, the projection carries the core
    variables the evaluable residue needs; use :func:`evaluate_conjunctive`
    for the complete pipeline.
    """
    registry = builtins if builtins is not None else BuiltinRegistry()
    psj, _core_vars, _evaluable = core_plan(query, registry)
    return psj


def evaluate_conjunctive(
    query: ConjunctiveQuery,
    lookup: RelationLookup,
    builtins: BuiltinRegistry | None = None,
) -> Relation:
    """Evaluate a full conjunctive CAQL query (PSJ + evaluable literals).

    This is the differential fuzzer's oracle, so it translates from
    scratch: a wrong :func:`core_plan` entry must not corrupt the CMS and
    the oracle alike.
    """
    registry = builtins if builtins is not None else BuiltinRegistry()
    psj, core_vars, evaluable = _translate(query, registry)
    core = evaluate_psj(psj, lookup)
    if not evaluable:
        return core
    return apply_evaluable(query, core_vars, evaluable, core, registry)


def apply_evaluable(
    query: ConjunctiveQuery,
    core_vars: Sequence[Var],
    evaluable: Sequence[Atom],
    core_result: Relation,
    registry: BuiltinRegistry,
) -> Relation:
    """Run the evaluable residue row-wise over the PSJ core's result."""
    schema = result_schema(query.name, query.arity)
    out = Relation(schema)
    for row in core_result:
        bindings = Substitution()
        for position, var in enumerate(core_vars):
            bindings = bindings.bind(var, Const(row[position]))
        for solution in _run_evaluable(evaluable, bindings, registry):
            answer = []
            for term in query.answers:
                value = solution.apply_term(term) if isinstance(term, Var) else term
                if isinstance(value, Var):
                    raise EvaluationError(
                        f"answer variable {value} of {query.name} was never bound"
                    )
                answer.append(value.value)
            out.insert(tuple(answer))
    return out


def _run_evaluable(
    literals: Sequence[Atom], bindings: Substitution, registry: BuiltinRegistry
) -> Iterator[Substitution]:
    if not literals:
        yield bindings
        return
    head, *rest = literals
    for extended in registry.evaluate(head, bindings):
        yield from _run_evaluable(rest, extended, registry)


# ---------------------------------------------------------------------------
# second-order queries
# ---------------------------------------------------------------------------


def evaluate_aggregate(
    query: AggregateQuery, base_result: Relation
) -> Relation:
    """Apply AGG to the (already evaluated) base result."""
    schema = base_result.schema
    group_attrs = [schema.attributes[i] for i in query.group_by]
    aggregations = [
        (fn, schema.attributes[i] if fn != "count" else "", out)
        for fn, i, out in query.aggregations
    ]
    return relational_aggregate(base_result, group_attrs, aggregations, name=query.base.name)


def evaluate_quantified(query, base_result: Relation, within_result: Relation | None = None) -> Relation:
    """Apply a CAQL quantifier to evaluated operand relations.

    ``EXISTS``/``ALL`` yield a boolean relation (one ``(True,)`` row when
    the quantified statement holds, empty otherwise); ``ANY`` yields at
    most one answer row; ``THE`` yields the unique answer or raises.
    """
    boolean = Schema(query.base.name, ("holds",))
    if query.quantifier == "exists":
        return Relation(boolean, [(True,)] if len(base_result) else [])
    if query.quantifier == "any":
        rows = base_result.rows[:1]
        return Relation(base_result.schema, rows)
    if query.quantifier == "the":
        if len(base_result) != 1:
            raise EvaluationError(
                f"THE[{query.base.name}]: expected exactly one answer, got {len(base_result)}"
            )
        return base_result
    # ALL: containment of base in within.
    assert within_result is not None
    holds_all = all(row in within_result for row in base_result)
    return Relation(boolean, [(True,)] if holds_all else [])


def evaluate_setof(query: SetOfQuery, base_result: Relation) -> Relation:
    """Apply SETOF/BAGOF to the (already evaluated) base result.

    SETOF is the identity on a set-semantics result; BAGOF appends a
    multiplicity column (always 1 here because the substrate is set-based —
    the distinction matters only against bag-semantics remote results).
    """
    if not query.with_counts:
        return base_result
    attrs = base_result.schema.attributes + ("count",)
    schema = Schema(base_result.schema.name, attrs)
    return Relation(schema, (row + (1,) for row in base_result))
