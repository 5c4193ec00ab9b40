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
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.common.errors import InvariantViolation
from repro.caql.implication import (
    ConditionSet,
    _ClassInfo,
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

    A form is shared by every query that agrees on what :func:`_build`
    reads — through the memo, by queries that differ only in ``name`` or
    variable names — so it holds nothing of any one query: the normalized
    *expression* is :func:`normalized`, built on demand.

    Besides the key it carries the fold the key was rendered from, so the
    subsumption probe asks its implication questions of the same
    :class:`~repro.caql.implication.ConditionSet` instead of folding the
    conditions again.  A fold reads ``conditions`` alone, which the memo
    keys on, so sharing it is exact; and it is read-only once ``_build``
    has returned.
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
    stored) is a dict probe.
    """
    form = query.__dict__.get("_canonical")
    if form is None:
        occurrences, conditions = query.occurrences, query.conditions
        projection, unsatisfiable = query.projection, query.unsatisfiable
        try:
            form = _canonicalize_cached(
                occurrences, conditions, projection, unsatisfiable, _spelling(query)
            )
        except TypeError:  # an unhashable answer constant: compute directly
            form = _build(occurrences, conditions, projection, unsatisfiable)
        query.__dict__["_canonical"] = form
    return form


def _spelling(query: PSJQuery) -> tuple:
    """The query's occurrences and conditions spelled out, for the memo key.

    Each occurrence as its tag, relation and arity, each condition as its
    operator and operands — a column by name, a constant by its exact
    spelling (type name and ``repr``) — flat, in order, then the spelling
    of every pinned answer constant.  Queries that compare ``==``-equal can
    still differ in constant *spellings* (``ConstProj(1)`` vs
    ``ConstProj(1.0)``), and answer spellings change the canonical key —
    so equality alone must not share a memo row.  A qualified column name
    never holds the ``!`` every spelling does, so no column reads as a
    constant; and strings hash in C, where the condition objects would
    each run a Python ``__hash__``.
    """
    occurrences, conditions = query.occurrences, query.conditions
    parts: list = [len(occurrences)]
    for occ in occurrences:
        parts += (occ.tag, occ.pred, occ.arity)
    parts.append(len(conditions))
    for condition in conditions:
        left, right = condition.left, condition.right
        parts += (
            left.name if type(left) is Col else _encode_raw(left.value),
            condition.op,
            right.name if type(right) is Col else _encode_raw(right.value),
        )
    for entry in query.projection:
        if isinstance(entry, ConstProj):
            parts.append(_encode_raw(entry.value))
    return tuple(parts)


#: How many forms the memo keeps, least recently used out first.
MEMO_BOUND = 4096


#: The memo's rows, least recently used first.
_memo: OrderedDict[tuple, CanonicalForm] = OrderedDict()


def _canonicalize_cached(
    occurrences, conditions, projection, unsatisfiable, spelled
) -> CanonicalForm:
    """The form of the query these parts make up, through the memo.

    Keyed on ``spelled`` (:func:`_spelling`), the projection and the
    unsatisfiable flag — exactly what ``_build`` reads: not the query's
    name and not its variable names, so a re-ask under fresh variable
    names (the IE renames apart on every resolution step) and a sub-query
    that differs from its query in name alone share the row.  Raises
    ``TypeError`` when an answer constant cannot be hashed.
    """
    key = (spelled, projection, unsatisfiable)
    form = _memo.get(key)
    if form is None:
        form = _memo[key] = _build(occurrences, conditions, projection, unsatisfiable)
        if len(_memo) > MEMO_BOUND:
            _memo.popitem(last=False)
    else:
        _memo.move_to_end(key)
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
    """The key of ``query`` recomputed from scratch — no carry, no memo.

    Both shortcuts hand a query a form that was built for another object;
    this is the check that they only ever do so for a query the form is
    right for — its key, and the carried fold's every fact (classes, pins,
    per-kind bounds, exclusions, general conditions), which is what the
    subsumption probe reads.  Raises
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
            f"scratch gives: carried/memoised {form.key}, fresh {fresh.key}"
        )
    if vars(form.conditions) != vars(fresh.conditions):
        raise InvariantViolation(
            f"carried fold of {query.name} is not what folding its conditions "
            f"gives: carried/memoised {vars(form.conditions)}, fresh "
            f"{vars(fresh.conditions)}"
        )
    return fresh.key


def clear_cache() -> None:
    """Drop the memo table (tests that patch the fold seam use this)."""
    _memo.clear()


# -- construction ---------------------------------------------------------------------


def _build(occurrences, conditions, projection, unsatisfiable) -> CanonicalForm:
    """The canonical form of the query these parts make up (the memo's
    miss path, and the audit's from-scratch recomputation)."""
    folded = ConditionSet(conditions)
    if unsatisfiable or not folded.satisfiable:
        return CanonicalForm(("unsat", str(len(projection))), True, folded)

    orders = _candidate_orders(occurrences, folded)
    for entry in projection:
        if isinstance(entry, ConstProj):  # rendered once, for every order
            projection = [
                entry if isinstance(entry, str) else f"const!{_encode_raw(entry.value)}"
                for entry in projection
            ]
            break
    best_order = orders[0]
    best_key = _key(folded, occurrences, projection, best_order)
    for order in orders[1:]:
        key = _key(folded, occurrences, projection, order)
        if key < best_key:
            best_key = key
            best_order = order
    return CanonicalForm(best_key, False, folded, tuple(best_order))


def _key(folded: ConditionSet, occurrences, projection, order) -> tuple:
    """The key under ``order``: occurrence ``order[i]`` is tagged ``ti``.

    The fold has rendered every literal fact once, as the text after its
    class's column (:attr:`~repro.caql.implication._ClassInfo.spelled`),
    and ``projection`` comes with its pinned constants rendered; an order
    only renames columns, names each class by its least member and sorts.
    The order that keeps every tag — the usual one, as a translated
    query's tags are ``t0, t1, ...`` in body order — renames nothing.
    """
    tags = None  # old tag -> new tag, when ``order`` moves any
    for new, old in enumerate(order):
        tag = f"t{new}"
        if occurrences[old].tag != tag:
            if tags is None:
                tags = {occ.tag: occ.tag for occ in occurrences}
            tags[occurrences[old].tag] = tag
    renamed = None
    if tags is not None:

        def renamed(column: str) -> str:
            tag, dot, rest = column.partition(".")
            return tags[tag] + dot + rest

        projection = [
            entry if entry.startswith("const!") else renamed(entry)
            for entry in projection
        ]
    classes, between = _classes_under(folded, renamed)
    rendered = [f"{left} {op} {right}" for left, op, right in between]
    for rep, info in classes:
        for tail in info.spelled:
            rendered.append(rep + tail)
    rendered.sort()
    signatures = tuple(f"{occurrences[old].pred}/{occurrences[old].arity}" for old in order)
    return ("q", signatures, tuple(rendered), tuple(projection))


def _classes_under(
    folded: ConditionSet, rename: Callable[[str], str] | None
) -> tuple[list[tuple[str, _ClassInfo]], list[tuple[str, str, str]]]:
    """The fold's classes and column-to-column conditions with every column
    passed through ``rename`` (None keeps the names).

    Each class speaks through its representative, its least member, so
    what is said depends on the fold and the renaming alone: the classes
    as ``(representative, facts)``, and as ``(left, op, right)`` each other
    member equal to its representative and each general condition between
    representatives, in name order.  The key (:func:`_key`) and the
    normalized expression (:func:`_normalized_query`) are both read off it.
    """
    classes: list[tuple[str, _ClassInfo]] = []
    between: list[tuple[str, str, str]] = []
    reps: dict[str, str] = {}  # class root -> its representative
    for root, info in folded.classes.items():
        members = sorted(info.columns if rename is None else [rename(c) for c in info.columns])
        rep = reps[root] = members[0]
        classes.append((rep, info))
        for member in members[1:]:
            between.append((rep, "=", member))
    for left, op, right in folded.general:
        left, right = reps[left], reps[right]
        if right < left:
            left, op, right = right, FLIPPED[op], left
        between.append((left, op, right))
    return classes, between


# -- occurrence ordering --------------------------------------------------------------


def _candidate_orders(occurrences, folded: ConditionSet) -> list[list[int]]:
    """Occurrence orders to try: per-signature permutations, capped."""
    previous = None
    for occ in occurrences:  # in strictly ascending signature order: the one order
        if previous is not None and (previous.pred, previous.arity) >= (occ.pred, occ.arity):
            break
        previous = occ
    else:
        return [list(range(len(occurrences)))]
    groups: dict[tuple[str, int], list[int]] = {}
    for index, occ in enumerate(occurrences):
        groups.setdefault((occ.pred, occ.arity), []).append(index)
    signatures = sorted(groups)

    total = 1
    for signature in signatures:
        for k in range(2, len(groups[signature]) + 1):
            total *= k
        if total > PERMUTATION_CAP:
            break
    if total > PERMUTATION_CAP:
        return [_refined_order(occurrences, signatures, groups, folded)]

    per_group = [itertools.permutations(groups[s]) for s in signatures]
    orders = []
    for combo in itertools.product(*per_group):
        order = [index for group in combo for index in group]
        orders.append(order)
    return orders


def _refined_order(occurrences, signatures, groups, folded: ConditionSet) -> list[int]:
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
    order: list[int] = []
    for signature in signatures:
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

    classes, between = _classes_under(folded, lambda column: _map_column(column, mapping))
    conditions: list[tuple[str, Comparison]] = [
        (f"{left} {op} {right}", Comparison(Col(left), op, Col(right)))
        for left, op, right in between
    ]
    for rep, info in classes:
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
