"""Deterministic canonicalization of PSJ queries — the semantic cache key.

The canonical lookup tier: syntactically different but equivalent CAQL
queries (reordered conjuncts, renamed variables, ``x>5 ∧ x>3``, constant
spellings ``1`` vs ``1.0``) should hit the same cache elements *before*
the general subsumption machinery runs.  This module rewrites a
:class:`~repro.caql.psj.PSJQuery` into a canonical normal form and
derives a stable, hashable **canonical key** from it.  The conjunction is
folded by :class:`~repro.caql.implication.ConditionSet` — the one fold,
which subsumption asks its implication questions of too; what is this
module's own is choosing the occurrence order and rendering the key:

* **conjunct ordering** — every emitted condition is rendered to a
  string and the condition set is sorted, so conjunct order in the
  source query is irrelevant;
* **interval normal form** — comparison predicates on one equality
  class of columns are folded into at most one lower bound, one upper
  bound, one equality pin, and a set of exclusions per comparability
  kind (``x>5 ∧ x>3`` → ``x>5``; ``x>=5 ∧ x<=5`` → ``x=5``); detected
  contradictions (``x>5 ∧ x<3``, conflicting pins) mark the form
  **unsatisfiable**, which the planner turns into an empty-result fast
  path;
* **constant normalization** — ``==``-equal spellings collapse to one
  canonical spelling under the same ``(type name, repr)`` convention as
  :func:`repro.core.rdi.canonical_bindings` (``1``, ``1.0`` and ``True``
  all select the same rows, so they share a spelling); answer constants
  (:class:`~repro.caql.psj.ConstProj`) are *not* respelled — the fuzzer
  encodes answers type-preservingly, and ``1`` and ``1.0`` are different
  output values;
* **alpha-equivalence** — occurrence tags are renamed positionally
  after choosing the lexicographically least key over the permutations
  of same-``(pred, arity)`` occurrences (capped; beyond the cap a
  deterministic refinement order is used, which may forgo — but never
  falsify — a canonical hit).

Soundness contract: ``canonical_key(a) == canonical_key(b)`` implies the
two queries produce identical answer row sets under
:func:`repro.caql.eval.evaluate_psj` semantics (comparisons evaluate via
:func:`~repro.relational.expressions.holds`, where a type clash is
``False``).  The reverse is deliberately not promised — a missed hit
falls through to subsumption, which is exactly the pre-canonical
behavior.  The equivalent-query mutation fuzzer
(``python -m repro fuzz --profile variants``) carries the correctness argument.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.common.errors import InvariantViolation
from repro.caql.implication import (
    ConditionSet,
    FoldPlan,
    canonical_constant,
    encode_constant,
)
from repro.caql.psj import ConstProj, Occurrence, PSJQuery
from repro.relational.expressions import Col, Comparison, FLIPPED, Lit

#: Exhaustive-permutation budget for alpha-equivalent occurrence
#: ordering.  3–4 same-signature occurrences stay exact; beyond that the
#: deterministic refinement fallback kicks in (sound, possibly lossy).
PERMUTATION_CAP = 720


def _encode_raw(value: object) -> str:
    """Spelling-preserving rendering (answer constants stay distinct)."""
    return f"{type(value).__name__}!{value!r}"


# -- the canonical form ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CanonicalForm:
    """The canonicalizer's output for one PSJ query.

    A form can be shared by queries that agree on what :func:`_build`
    reads — a query and its whole-query sub-query, which differ in
    ``name`` alone (:func:`repro.core.plan.sub_query`) — so it holds
    nothing of any one query: the normalized *expression* is
    :func:`normalized`, built on demand.

    Besides the key it carries the fold the key was rendered from, so the
    subsumption probe asks its implication questions of the same
    :class:`~repro.caql.implication.ConditionSet` instead of folding the
    conditions again.  The fold is read-only once built.
    """

    #: The stable canonical key — nested tuples of strings only, so
    #: comparison and hashing never hit a cross-type ``TypeError``.
    key: tuple
    #: True when folding proved the query empty.
    unsatisfiable: bool
    #: The query's conditions, folded (over the query's own column names).
    conditions: ConditionSet = field(repr=False, compare=False)
    #: The winning occurrence order, which :func:`normalized` rebuilds
    #: the expression in; ``None`` when unsatisfiable.
    _order: tuple[int, ...] | None = field(default=None, repr=False, compare=False)


def canonicalize(query: PSJQuery) -> CanonicalForm:
    """The canonical form of ``query`` (pure; derived once per object).

    The first call leaves the form on the query instance — ``PSJQuery`` is
    frozen, so the form can never go stale, and it lives in the instance
    dict, which ``==``, ``hash``, ``repr`` and ``dataclasses.replace`` never
    read — and every later call on the same object (the planner's lookup,
    the subsumption probe's, a stored definition's for as long as it is
    stored) is a dict probe.  A query bound from a shape plan
    (:func:`repro.caql.eval.core_plan`) arrives with its form already
    carried (:meth:`FormPlan.bind`); any other is built here.
    """
    form = query.__dict__.get("_canonical")
    if form is None:
        form = query.__dict__["_canonical"] = _build(
            query.occurrences, query.conditions, query.projection, query.unsatisfiable
        )
    return form


def canonical_key(query: PSJQuery) -> tuple:
    """Just the key — what :func:`repro.core.cache.key_of` indexes by."""
    return canonicalize(query).key


def normalized(query: PSJQuery) -> PSJQuery:
    """The normalized expression of ``query``.

    Canonical occurrence order and tags, folded conditions with canonical
    constant spellings; evaluates to the same answers as ``query`` and is
    a fixed point of canonicalization.  Nothing on the query path reads
    it — tests and diagnostics do — so it is built here, on demand, from
    the form's fold and winning order.
    """
    form = canonicalize(query)
    if form.unsatisfiable:
        return query if query.unsatisfiable else replace(query, unsatisfiable=True)
    return _normalized_query(query, form.conditions, form._order)


def audit_canonical(query: PSJQuery) -> tuple:
    """The key of ``query`` recomputed from scratch — no carry, no plan.

    Both shortcuts hand a query a form that was not built from it — one
    bound from a plan built for another query of its shape, or one
    carried over from the query a sub-query is the whole of; this is the
    check that the form is right for the query all the same — its key,
    and the carried fold's every fact (classes, pins, per-kind bounds,
    exclusions, general conditions), which is what the subsumption probe
    reads.  Raises
    :class:`~repro.common.errors.InvariantViolation` when
    :func:`canonicalize` disagrees with the recomputation.
    """
    fresh = _build(
        query.occurrences, query.conditions, query.projection, query.unsatisfiable
    )
    form = canonicalize(query)
    if (form.key, form.unsatisfiable) != (fresh.key, fresh.unsatisfiable):
        raise InvariantViolation(
            f"canonical form of {query.name} is not what building it from "
            f"scratch gives: carried {form.key}, fresh {fresh.key}"
        )
    if vars(form.conditions) != vars(fresh.conditions):
        raise InvariantViolation(
            f"carried fold of {query.name} is not what folding its conditions "
            f"gives: carried {vars(form.conditions)}, fresh "
            f"{vars(fresh.conditions)}"
        )
    return fresh.key


# -- construction ---------------------------------------------------------------------


def _build(occurrences, conditions, projection, unsatisfiable) -> CanonicalForm:
    """The canonical form of the query these parts make up, from scratch
    (a query no shape plan bound, and the audit's recomputation)."""
    return _form(ConditionSet(conditions), occurrences, projection, unsatisfiable)


def _form(folded: ConditionSet, occurrences, projection, unsatisfiable) -> CanonicalForm:
    """The canonical form over ``folded``, the fold of the query's
    conditions: the least key over the candidate occurrence orders."""
    if unsatisfiable or not folded.satisfiable:
        return CanonicalForm(("unsat", str(len(projection))), True, folded)
    # Pinned answer constants are rendered once, for every order.
    template, constants = [], {}
    for position, entry in enumerate(projection):
        if isinstance(entry, ConstProj):
            constants[position] = f"const!{_encode_raw(entry.value)}"
            entry = position
        template.append(entry)
    members = [(root, info.columns) for root, info in folded.classes.items()]
    candidates = [
        (order, _fragments(members, folded.general, occurrences, template, order))
        for order in _candidate_orders(occurrences, folded)
    ]
    return _least(folded, candidates, constants)


def _least(folded: ConditionSet, candidates, constants) -> CanonicalForm:
    """The form under the candidate ``(order, fragments)`` whose key is
    least — the first of equal ones."""
    best_order = best_key = None
    for order, fragments in candidates:
        key = _key(folded, fragments, constants)
        if best_key is None or key < best_key:
            best_order, best_key = order, key
    return CanonicalForm(best_key, False, folded, tuple(best_order))


def _renaming(occurrences, order) -> Callable[[str], str] | None:
    """Moves a column to its tag under ``order`` (occurrence ``order[i]``
    is tagged ``ti``); None when ``order`` keeps every tag — the usual
    case, as a translated query's tags are ``t0, t1, ...`` in body order."""
    tags = None  # old tag -> new tag, when ``order`` moves any
    for new, old in enumerate(order):
        tag = f"t{new}"
        if occurrences[old].tag != tag:
            if tags is None:
                tags = {occ.tag: occ.tag for occ in occurrences}
            tags[occurrences[old].tag] = tag
    if tags is None:
        return None

    def renamed(column: str) -> str:
        tag, dot, rest = column.partition(".")
        return tags[tag] + dot + rest

    return renamed


def _fragments(members, general, occurrences, projection, order) -> tuple:
    """What the key says under ``order`` (occurrence ``order[i]`` is
    tagged ``ti``) that no constant changes: the relation signatures, each
    class's representative (in fold order), the member equalities and
    general conditions rendered, and ``projection`` with its columns
    renamed — its other entries are keys into the ``constants`` that
    :func:`_key` is given."""
    renamed = _renaming(occurrences, order)
    if renamed is not None:
        projection = [entry if type(entry) is int else renamed(entry) for entry in projection]
    reps, between = _classes_under(members, general, renamed)
    return (
        tuple(f"{occurrences[old].pred}/{occurrences[old].arity}" for old in order),
        tuple(reps),
        tuple([f"{left} {op} {right}" for left, op, right in between]),
        tuple(projection),
    )


def _key(folded: ConditionSet, fragments: tuple, constants: dict | None) -> tuple:
    """The key of ``folded`` under one candidate order's ``fragments``.

    The fold has rendered every literal fact once, as the text after its
    class's column (:attr:`~repro.caql.implication._ClassInfo.spelled`),
    and the pinned answer constants are rendered once, into
    ``constants``; an order only names each class by its representative
    under it and sorts.
    """
    signatures, reps, between, projection = fragments
    rendered = list(between)
    for rep, info in zip(reps, folded.classes.values()):
        for tail in info.spelled:
            rendered.append(rep + tail)
    rendered.sort()
    if constants:
        projection = tuple(
            [entry if type(entry) is str else constants[entry] for entry in projection]
        )
    return ("q", signatures, tuple(rendered), projection)


def _classes_under(
    members, general, rename: Callable[[str], str] | None
) -> tuple[list[str], list[tuple[str, str, str]]]:
    """A fold's classes (``members``: ``(root, columns)`` per class, in
    fold order) and column-to-column conditions (``general``: ``(left
    root, op, right root)``) with every column passed through ``rename``
    (None keeps the names).

    Each class speaks through its representative, its least member, so
    what is said depends on the classes and the renaming alone: each
    class's representative, in fold order, and as ``(left, op, right)``
    each other member equal to its representative and each general
    condition between representatives, in name order.  The key
    (:func:`_fragments`) and the normalized expression
    (:func:`_normalized_query`) are both read off it.
    """
    reps: list[str] = []
    between: list[tuple[str, str, str]] = []
    by_root: dict[str, str] = {}  # class root -> its representative
    for root, columns in members:
        names = sorted(columns if rename is None else [rename(c) for c in columns])
        rep = by_root[root] = names[0]
        reps.append(rep)
        for member in names[1:]:
            between.append((rep, "=", member))
    for left, op, right in general:
        left, right = by_root[left], by_root[right]
        if right < left:
            left, op, right = right, FLIPPED[op], left
        between.append((left, op, right))
    return reps, between


class FormPlan:
    """The constant-free half of a canonical form, built once per query
    shape (:func:`repro.caql.eval.core_plan`'s shape plan).

    Built from the shape's template — its translation with every constant
    a :class:`~repro.caql.eval.Slot` — it holds the fold's classes
    (:class:`~repro.caql.implication.FoldPlan`) and, per candidate
    occurrence order, everything the key says under it that no constant
    changes, already rendered (:func:`_fragments`).  An ask (:meth:`bind`)
    folds its constants into the classes, renders only their facts, and
    takes the least key over the candidates — one, when no relation
    occurs twice; which one wins otherwise depends on the constants.  A
    shape with more same-relation permutations than
    :data:`PERMUTATION_CAP` keeps no candidates: its order is refined
    from each ask's fold, as :func:`_build` does.
    """

    __slots__ = ("fold", "occurrences", "slots", "candidates")

    def __init__(self, template: PSJQuery):
        fold = self.fold = FoldPlan(template.conditions)
        occurrences = self.occurrences = template.occurrences
        #: The projection as the key renders it: a column's name, or the
        #: slot index of a pinned answer constant.
        projection = [
            entry.value.index if isinstance(entry, ConstProj) else entry
            for entry in template.projection
        ]
        self.slots = tuple(entry for entry in projection if type(entry) is int)
        orders = _permutations(occurrences)
        self.candidates = None if orders is None else tuple(
            (tuple(order), _fragments(fold.members, fold.general, occurrences, projection, order))
            for order in orders
        )

    def bind(self, values: list, projection: tuple, unsatisfiable: bool) -> CanonicalForm:
        """The form of the shape's query with slot ``i`` bound to
        ``values[i]`` — ``projection`` is that query's — identical, key
        and fold, to what :func:`_build` makes of it."""
        folded = ConditionSet.from_plan(self.fold, values)
        if self.candidates is None or unsatisfiable or not folded.satisfiable:
            return _form(folded, self.occurrences, projection, unsatisfiable)
        constants = None
        if self.slots:
            constants = {slot: f"const!{_encode_raw(values[slot])}" for slot in self.slots}
        return _least(folded, self.candidates, constants)


# -- occurrence ordering --------------------------------------------------------------


def _candidate_orders(occurrences, folded: ConditionSet) -> list[list[int]]:
    """Occurrence orders to try: per-signature permutations, capped."""
    return _permutations(occurrences) or [_refined_order(occurrences, folded)]


def _permutations(occurrences) -> list[list[int]] | None:
    """Every order that permutes occurrences within their ``(pred,
    arity)`` group, groups in signature order — one order when no
    signature repeats — or None past :data:`PERMUTATION_CAP`."""
    previous = None
    for occ in occurrences:  # in strictly ascending signature order: the one order
        if previous is not None and (previous.pred, previous.arity) >= (occ.pred, occ.arity):
            break
        previous = occ
    else:
        return [list(range(len(occurrences)))]
    groups = _signature_groups(occurrences)
    total = 1
    for group in groups.values():
        for k in range(2, len(group) + 1):
            total *= k
        if total > PERMUTATION_CAP:
            return None
    per_group = [itertools.permutations(groups[s]) for s in sorted(groups)]
    orders = []
    for combo in itertools.product(*per_group):
        order = [index for group in combo for index in group]
        orders.append(order)
    return orders


def _signature_groups(occurrences) -> dict[tuple[str, int], list[int]]:
    """Occurrence indexes by ``(pred, arity)``, in occurrence order."""
    groups: dict[tuple[str, int], list[int]] = {}
    for index, occ in enumerate(occurrences):
        groups.setdefault((occ.pred, occ.arity), []).append(index)
    return groups


def _refined_order(occurrences, folded: ConditionSet) -> list[int]:
    """Deterministic fallback beyond the permutation cap.

    Occurrences are refined within their signature group by a
    tag-erased digest of the constraints touching their columns — not
    guaranteed alpha-minimal, but stable, so identical inputs still map
    to identical keys.
    """
    digests: dict[int, tuple] = {}
    for index, occ in enumerate(occurrences):
        prefix = occ.tag + "."
        local: list[str] = []
        for info in folded.classes.values():
            for col in info.columns:
                if col.startswith(prefix):
                    # ``c<position> op constant``
                    position = col.split(".c", 1)[1]
                    local.extend(f"c{position}{tail}" for tail in info.spelled)
        digests[index] = (tuple(sorted(local)), index)
    groups = _signature_groups(occurrences)
    order: list[int] = []
    for signature in sorted(groups):
        order.extend(sorted(groups[signature], key=digests.__getitem__))
    return order


# -- the normalized expression --------------------------------------------------------


def _map_column(column: str, mapping: dict[str, str]) -> str:
    tag, _, rest = column.partition(".")
    return f"{mapping[tag]}.{rest}"


def _normalized_query(query, folded: ConditionSet, order) -> PSJQuery:
    mapping = {query.occurrences[old].tag: f"t{new}" for new, old in enumerate(order)}
    occurrences = tuple(
        Occurrence(f"t{new}", query.occurrences[old].pred, query.occurrences[old].arity)
        for new, old in enumerate(order)
    )

    reps, between = _classes_under(
        [(root, info.columns) for root, info in folded.classes.items()],
        folded.general,
        lambda column: _map_column(column, mapping),
    )
    conditions: list[tuple[str, Comparison]] = [
        (f"{left} {op} {right}", Comparison(Col(left), op, Col(right)))
        for left, op, right in between
    ]
    for rep, info in zip(reps, folded.classes.values()):
        for op, value in info.literals():
            value = canonical_constant(value)
            conditions.append(
                (f"{rep} {op} {encode_constant(value)}", Comparison(Col(rep), op, Lit(value)))
            )
    conditions.sort(key=lambda pair: pair[0])
    projection = tuple(
        entry if isinstance(entry, ConstProj) else _map_column(entry, mapping)
        for entry in query.projection
    )
    var_columns = tuple(
        (name, tuple(_map_column(c, mapping) for c in cols))
        for name, cols in query.var_columns
    )
    return PSJQuery(
        query.name,
        occurrences,
        tuple(c for _, c in conditions),
        projection,
        var_columns=var_columns,
        unsatisfiable=False,
    )
