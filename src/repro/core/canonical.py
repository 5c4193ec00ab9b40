"""Deterministic canonicalization of PSJ queries — the semantic cache key.

ROADMAP item 1: syntactically different but equivalent CAQL queries
(reordered conjuncts, renamed variables, ``x>5 ∧ x>3``, constant
spellings ``1`` vs ``1.0``) should hit the same cache elements *before*
the general subsumption machinery runs.  This module rewrites a
:class:`~repro.caql.psj.PSJQuery` into a canonical normal form and
derives a stable, hashable **canonical key** from it:

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
(``braid_fuzz.py --profile variants``) carries the correctness argument.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import lru_cache

from repro.common.errors import InvariantViolation
from repro.caql.psj import ConstProj, Occurrence, PSJQuery
from repro.relational.expressions import Col, Comparison, FLIPPED, Lit, holds

#: Exhaustive-permutation budget for alpha-equivalent occurrence
#: ordering.  3–4 same-signature occurrences stay exact; beyond that the
#: deterministic refinement fallback kicks in (sound, possibly lossy).
PERMUTATION_CAP = 720


# -- constants -----------------------------------------------------------------------


def canonical_constant(value: object) -> object:
    """The canonical spelling of a constant's ``==``-equality class.

    Numeric spellings (``bool``/``int``/``float``) that compare equal
    select exactly the same rows, so they collapse to the float spelling
    when it is exact (``1`` → ``1.0``, ``True`` → ``1.0``); integers
    beyond float precision keep their own spelling.  Non-numeric values
    (strings included — ``"1" != 1``) are returned unchanged.
    """
    if isinstance(value, (bool, int, float)):
        try:
            as_float = float(value)
        except (OverflowError, ValueError):
            return value
        if as_float == value:
            return as_float
    return value


def _encode(value: object) -> str:
    """A total-ordered, collision-free rendering of a canonical constant."""
    v = canonical_constant(value)
    return f"{type(v).__name__}!{v!r}"


def _encode_raw(value: object) -> str:
    """Spelling-preserving rendering (answer constants stay distinct)."""
    return f"{type(value).__name__}!{value!r}"


def _kind(value: object) -> str:
    """Comparability kind: values of one kind never raise on comparison."""
    if isinstance(value, (bool, int, float)):
        return "num"
    return type(value).__name__


# -- interval folding ----------------------------------------------------------------


@dataclass
class _Interval:
    """One comparability kind's folded range bounds."""

    lower: tuple[object, bool] | None = None  # (value, strict)
    upper: tuple[object, bool] | None = None


def _fold_lower(interval: _Interval, value: object, strict: bool) -> None:
    """Tighten ``interval``'s lower bound with ``> / >= value``."""
    current = interval.lower
    if (
        current is None
        or holds(value, ">", current[0])
        or (value == current[0] and strict and not current[1])
    ):
        interval.lower = (value, strict)


def _fold_upper(interval: _Interval, value: object, strict: bool) -> None:
    """Tighten ``interval``'s upper bound with ``< / <= value``.

    Module-level on purpose: this is the interval-folding seam the
    planted-bug acceptance test replaces with a conjunct-dropping
    mutant (mirroring PR 5's ``derive_full`` seam).
    """
    current = interval.upper
    if (
        current is None
        or holds(value, "<", current[0])
        or (value == current[0] and strict and not current[1])
    ):
        interval.upper = (value, strict)


@dataclass
class _ClassFacts:
    """Folded constraints for one equality class of columns."""

    columns: list[str] = field(default_factory=list)
    pinned: object | None = None
    has_pin: bool = False
    intervals: dict[str, _Interval] = field(default_factory=dict)
    excluded: list[object] = field(default_factory=list)
    contradictory: bool = False

    def pin(self, value: object) -> None:
        if self.has_pin:
            if value != self.pinned:
                self.contradictory = True
            return
        self.pinned = value
        self.has_pin = True


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def find(self, col: str) -> str:
        parent = self._parent.setdefault(col, col)
        if parent == col:
            return col
        root = self.find(parent)
        self._parent[col] = root
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb

    def columns(self):
        return list(self._parent)


# -- the canonical form ---------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalForm:
    """The canonicalizer's output for one PSJ query.

    A form is shared by every query that agrees on what :func:`_build`
    reads — through the memo, by queries that differ only in ``name`` or
    variable names — so it holds nothing of any one query: the normalized
    *expression* is :func:`normalized`, built on demand.
    """

    #: The stable canonical key — nested tuples of strings only, so
    #: comparison and hashing never hit a cross-type ``TypeError``.
    key: tuple
    #: True when folding proved the query empty.
    unsatisfiable: bool
    #: What :func:`normalized` rebuilds the expression from: the folded
    #: facts and the winning occurrence order, ``(classes, general,
    #: order)``; ``None`` when unsatisfiable.  Shared with the form, so
    #: read-only once ``_build`` has returned.
    _recipe: tuple | None = field(default=None, repr=False, compare=False)


def canonicalize(query: PSJQuery) -> CanonicalForm:
    """The canonical form of ``query`` (pure; derived once per object).

    The first call leaves the form on the query instance — ``PSJQuery`` is
    frozen, so the form can never go stale, and it lives in the instance
    dict, which ``==``, ``hash``, ``repr`` and ``dataclasses.replace`` never
    read — and every later call on the same object (the planner's lookup,
    the executor's, a stored definition's for as long as it is stored) is
    a dict probe.  The carried form remembers the fold seams it was built
    with: a monkeypatched seam (the planted-bug test) gets its own answer.
    """
    carried = query.__dict__.get("_canonical")
    if (
        carried is not None
        and carried[1] is _fold_lower
        and carried[2] is _fold_upper
    ):
        return carried[0]
    try:
        form = _canonicalize_cached(
            query.occurrences,
            query.conditions,
            query.projection,
            query.unsatisfiable,
            _spelling(query),
            _fold_lower,
            _fold_upper,
        )
    except TypeError:  # an unhashable constant somewhere: compute directly
        form = _build(query)
    query.__dict__["_canonical"] = (form, _fold_lower, _fold_upper)
    return form


def _spelling(query: PSJQuery) -> tuple[str, ...]:
    """Every constant's exact spelling, for the memo key.

    Queries that compare ``==``-equal can still differ in constant
    *spellings* (``ConstProj(1)`` vs ``ConstProj(1.0)``), and answer
    spellings change the canonical key — so equality alone must not
    share a memo row.
    """
    parts = []
    for condition in query.conditions:
        for operand in (condition.left, condition.right):
            if isinstance(operand, Lit):
                parts.append(_encode_raw(operand.value))
    for entry in query.projection:
        if isinstance(entry, ConstProj):
            parts.append(_encode_raw(entry.value))
    return tuple(parts)


@lru_cache(maxsize=4096)
def _canonicalize_cached(
    occurrences, conditions, projection, unsatisfiable, _spelled, _lo, _hi
) -> CanonicalForm:
    # Keyed on exactly what ``_build`` reads: not the query's name and not
    # its variable names, so a re-ask under fresh variable names (the IE
    # renames apart on every resolution step) and a sub-query that differs
    # from its query in name alone share the row.  ``_spelled``
    # disambiguates ==-equal queries with different constant spellings;
    # ``_lo``/``_hi`` are the current fold seams, passed only so a
    # monkeypatched seam (the planted-bug test) gets its own rows.
    return _build(
        PSJQuery("", occurrences, conditions, projection, unsatisfiable=unsatisfiable)
    )


def canonical_key(query: PSJQuery) -> tuple:
    """Just the key — what :func:`repro.core.cache.key_of` indexes by."""
    return canonicalize(query).key


def normalized(query: PSJQuery) -> PSJQuery:
    """The normalized expression of ``query``.

    Canonical occurrence order and tags, folded conditions with canonical
    constant spellings; evaluates to the same answers as ``query`` and is
    a fixed point of canonicalization.  Nothing on the query path reads
    it — tests and diagnostics do — so it is built here, on demand, from
    the form's recipe.
    """
    form = canonicalize(query)
    if form.unsatisfiable:
        return query if query.unsatisfiable else replace(query, unsatisfiable=True)
    return _normalized_query(query, *form._recipe)


def audit_canonical(query: PSJQuery) -> tuple:
    """The key of ``query`` recomputed from scratch — no carry, no memo.

    Both shortcuts hand a query a form that was built for another object;
    this is the check that they only ever do so for a query the form is
    right for.  Raises :class:`~repro.common.errors.InvariantViolation`
    when :func:`canonicalize` disagrees with the recomputation.
    """
    fresh = _build(query)
    form = canonicalize(query)
    if (form.key, form.unsatisfiable) != (fresh.key, fresh.unsatisfiable):
        raise InvariantViolation(
            f"canonical form of {query.name} is not what building it from "
            f"scratch gives: carried/memoised {form.key}, fresh {fresh.key}"
        )
    return fresh.key


def clear_cache() -> None:
    """Drop the memo table (tests that patch the fold seams use this)."""
    _canonicalize_cached.cache_clear()


# -- construction ---------------------------------------------------------------------


def _unsat_form(query: PSJQuery) -> CanonicalForm:
    return CanonicalForm(key=("unsat", str(query.arity)), unsatisfiable=True)


def _build(query: PSJQuery) -> CanonicalForm:
    if query.unsatisfiable:
        return _unsat_form(query)

    facts = _digest(query)
    if facts is None:
        return _unsat_form(query)
    classes, general = facts

    orders = _candidate_orders(query, classes)
    best_key = None
    best_order = None
    for order in orders:
        mapping = {
            query.occurrences[old].tag: f"t{new}" for new, old in enumerate(order)
        }
        key = (
            "q",
            tuple(
                f"{query.occurrences[old].pred}/{query.occurrences[old].arity}"
                for old in order
            ),
            tuple(sorted(_render_conditions(classes, general, mapping))),
            tuple(_render_projection(query, mapping)),
        )
        if best_key is None or key < best_key:
            best_key = key
            best_order = order

    return CanonicalForm(
        key=best_key, unsatisfiable=False, _recipe=(classes, general, best_order)
    )


def _digest(query: PSJQuery):
    """Fold the condition set into per-class facts + general conditions.

    Returns ``None`` when a contradiction makes the query empty.
    """
    uf = _UnionFind()
    col_lit: list[Comparison] = []
    col_col: list[Comparison] = []
    for condition in query.conditions:
        condition = condition.normalized()
        if isinstance(condition.left, Col) and isinstance(condition.right, Lit):
            uf.find(condition.left.name)
            col_lit.append(condition)
        elif condition.is_col_col():
            if condition.op == "=":
                uf.union(condition.left.name, condition.right.name)
            else:
                uf.find(condition.left.name)
                uf.find(condition.right.name)
                col_col.append(condition)
        # Lit-op-Lit never survives normalization upstream; a degenerate
        # one would have been constant-folded into ``unsatisfiable``.

    classes: dict[str, _ClassFacts] = {}
    for column in uf.columns():
        root = uf.find(column)
        classes.setdefault(root, _ClassFacts()).columns.append(column)

    bounds: dict[str, list[tuple[str, object]]] = {}
    for condition in col_lit:
        root = uf.find(condition.left.name)
        info = classes[root]
        value = condition.right.value
        if condition.op == "=":
            info.pin(value)
        elif condition.op == "!=":
            if not any(value == seen for seen in info.excluded):
                info.excluded.append(value)
        else:
            bounds.setdefault(root, []).append((condition.op, value))

    for root, entries in bounds.items():
        info = classes[root]
        # Canonical digestion order, so folding (which calls ``holds``
        # pairwise) cannot depend on source conjunct order.
        entries.sort(key=lambda e: (e[0], _encode(e[1])))
        for op, value in entries:
            interval = info.intervals.setdefault(_kind(value), _Interval())
            if op == "<":
                _fold_upper(interval, value, True)
            elif op == "<=":
                _fold_upper(interval, value, False)
            elif op == ">":
                _fold_lower(interval, value, True)
            elif op == ">=":
                _fold_lower(interval, value, False)

    for info in classes.values():
        if not _settle(info):
            return None

    general: list[tuple[str, str, str]] = []
    seen_general: set[tuple[str, str, str]] = set()
    for condition in col_col:
        left_root = uf.find(condition.left.name)
        right_root = uf.find(condition.right.name)
        if left_root == right_root:
            if condition.op in ("<", ">", "!="):
                return None  # x < x / x != x: never holds
            continue  # x <= x / x >= x: always holds
        entry = (left_root, condition.op, right_root)
        if entry not in seen_general:
            seen_general.add(entry)
            general.append(entry)
    return classes, general


def _settle(info: _ClassFacts) -> bool:
    """Resolve one class's facts; False when contradictory.

    A pin absorbs every other constraint (each is simply evaluated on
    the pinned value — exactly what execution would do row by row); a
    closed non-strict interval collapses to a pin; exclusions that the
    surviving interval already rules out are dropped as redundant.
    """
    if info.contradictory:
        return False
    if not info.has_pin:
        for interval in info.intervals.values():
            lower, upper = interval.lower, interval.upper
            if lower is None or upper is None:
                continue
            if holds(lower[0], ">", upper[0]):
                return False
            if lower[0] == upper[0]:
                if lower[1] or upper[1]:
                    return False
                info.pin(lower[0])
                break
    if info.has_pin:
        pinned = info.pinned
        for interval in info.intervals.values():
            lower, upper = interval.lower, interval.upper
            if lower is not None and not holds(pinned, ">" if lower[1] else ">=", lower[0]):
                return False
            if upper is not None and not holds(pinned, "<" if upper[1] else "<=", upper[0]):
                return False
        info.intervals.clear()
        if any(pinned == value for value in info.excluded):
            return False
        info.excluded = []
        return True
    kept = []
    for value in info.excluded:
        interval = info.intervals.get(_kind(value))
        if interval is not None:
            lower, upper = interval.lower, interval.upper
            if lower is not None and not holds(value, ">" if lower[1] else ">=", lower[0]):
                continue  # already outside the range: x != v is implied
            if upper is not None and not holds(value, "<" if upper[1] else "<=", upper[0]):
                continue
        kept.append(value)
    info.excluded = kept
    return True


# -- occurrence ordering --------------------------------------------------------------


def _candidate_orders(query: PSJQuery, classes: dict[str, _ClassFacts]):
    """Occurrence orders to try: per-signature permutations, capped."""
    groups: dict[tuple[str, int], list[int]] = {}
    for index, occ in enumerate(query.occurrences):
        groups.setdefault((occ.pred, occ.arity), []).append(index)
    signatures = sorted(groups)

    total = 1
    for signature in signatures:
        for k in range(2, len(groups[signature]) + 1):
            total *= k
        if total > PERMUTATION_CAP:
            break
    if total > PERMUTATION_CAP:
        return [_refined_order(query, signatures, groups, classes)]

    per_group = [itertools.permutations(groups[s]) for s in signatures]
    orders = []
    for combo in itertools.product(*per_group):
        order = [index for group in combo for index in group]
        orders.append(order)
    return orders


def _refined_order(query, signatures, groups, classes) -> list[int]:
    """Deterministic fallback beyond the permutation cap.

    Occurrences are refined within their signature group by a
    tag-erased digest of the constraints touching their columns — not
    guaranteed alpha-minimal, but stable, so identical inputs still map
    to identical keys.
    """
    digests: dict[int, tuple] = {}
    for index, occ in enumerate(query.occurrences):
        prefix = occ.tag + "."
        local: list[str] = []
        for facts in classes.values():
            for col in facts.columns:
                if not col.startswith(prefix):
                    continue
                position = col.split(".c", 1)[1]
                if facts.has_pin:
                    local.append(f"c{position} = {_encode(facts.pinned)}")
                for interval in facts.intervals.values():
                    if interval.lower is not None:
                        op = ">" if interval.lower[1] else ">="
                        local.append(f"c{position} {op} {_encode(interval.lower[0])}")
                    if interval.upper is not None:
                        op = "<" if interval.upper[1] else "<="
                        local.append(f"c{position} {op} {_encode(interval.upper[0])}")
                for value in facts.excluded:
                    local.append(f"c{position} != {_encode(value)}")
        digests[index] = (tuple(sorted(local)), index)
    order: list[int] = []
    for signature in signatures:
        order.extend(sorted(groups[signature], key=digests.__getitem__))
    return order


# -- rendering ------------------------------------------------------------------------


def _map_column(column: str, mapping: dict[str, str]) -> str:
    tag, _, rest = column.partition(".")
    return f"{mapping[tag]}.{rest}"


def _class_members(facts: _ClassFacts, mapping: dict[str, str]) -> list[str]:
    return sorted(_map_column(c, mapping) for c in facts.columns)


def _render_conditions(classes, general, mapping) -> list[str]:
    reps: dict[str, str] = {}  # class root -> representative under mapping
    out: list[str] = []
    for root, facts in classes.items():
        members = _class_members(facts, mapping)
        rep = members[0]
        reps[root] = rep
        for member in members[1:]:
            out.append(f"{rep} = {member}")
        if facts.has_pin:
            out.append(f"{rep} = {_encode(facts.pinned)}")
        for kind in sorted(facts.intervals):
            interval = facts.intervals[kind]
            if interval.lower is not None:
                op = ">" if interval.lower[1] else ">="
                out.append(f"{rep} {op} {_encode(interval.lower[0])}")
            if interval.upper is not None:
                op = "<" if interval.upper[1] else "<="
                out.append(f"{rep} {op} {_encode(interval.upper[0])}")
        for encoded in sorted(_encode(v) for v in facts.excluded):
            out.append(f"{rep} != {encoded}")
    for left_root, op, right_root in general:
        left, right = reps[left_root], reps[right_root]
        if right < left:
            left, op, right = right, FLIPPED[op], left
        out.append(f"{left} {op} {right}")
    return out


def _render_projection(query: PSJQuery, mapping: dict[str, str]) -> list[str]:
    out = []
    for entry in query.projection:
        if isinstance(entry, ConstProj):
            out.append(f"const!{_encode_raw(entry.value)}")
        else:
            out.append(_map_column(entry, mapping))
    return out


# -- the normalized expression --------------------------------------------------------


def _normalized_query(query, classes, general, order) -> PSJQuery:
    mapping = {query.occurrences[old].tag: f"t{new}" for new, old in enumerate(order)}
    occurrences = tuple(
        Occurrence(f"t{new}", query.occurrences[old].pred, query.occurrences[old].arity)
        for new, old in enumerate(order)
    )

    conditions: list[tuple[str, Comparison]] = []
    reps: dict[str, str] = {}
    for root, facts in classes.items():
        members = _class_members(facts, mapping)
        rep = members[0]
        reps[root] = rep
        for member in members[1:]:
            conditions.append((f"{rep} = {member}", Comparison(Col(rep), "=", Col(member))))
        if facts.has_pin:
            value = canonical_constant(facts.pinned)
            conditions.append((f"{rep} = {_encode(value)}", Comparison(Col(rep), "=", Lit(value))))
        for kind in sorted(facts.intervals):
            interval = facts.intervals[kind]
            if interval.lower is not None:
                op = ">" if interval.lower[1] else ">="
                value = canonical_constant(interval.lower[0])
                conditions.append(
                    (f"{rep} {op} {_encode(value)}", Comparison(Col(rep), op, Lit(value)))
                )
            if interval.upper is not None:
                op = "<" if interval.upper[1] else "<="
                value = canonical_constant(interval.upper[0])
                conditions.append(
                    (f"{rep} {op} {_encode(value)}", Comparison(Col(rep), op, Lit(value)))
                )
        for value in facts.excluded:
            value = canonical_constant(value)
            conditions.append(
                (f"{rep} != {_encode(value)}", Comparison(Col(rep), "!=", Lit(value)))
            )
    for left_root, op, right_root in general:
        left, right = reps[left_root], reps[right_root]
        if right < left:
            left, op, right = right, FLIPPED[op], left
        conditions.append((f"{left} {op} {right}", Comparison(Col(left), op, Col(right))))

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
