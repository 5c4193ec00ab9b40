"""Implication between conjunctions of PSJ conditions.

Subsumption (Section 5.3.2) reduces to two questions about conjunctions of
``column op column`` / ``column op literal`` conditions:

* does the query's condition set imply each condition of a cache element
  (the element is *no more restrictive* than the query), and
* does the element's condition set imply a query condition (so the
  remainder selection can skip it)?

The paper notes this is "more constrained than the more general implication
problem [SUN89]" because queries are limited to PSJ expressions.  The
engine below is sound and incomplete in the safe direction: ``implies``
never answers True unless the implication holds; a False merely forgoes an
optimization.

Method: *fold* the conjunction once — equivalence classes of columns from
the equality conditions, then per class an equality pin or, per
comparability kind of constant, one lower and one upper bound, plus the
excluded values — and check each candidate condition against the folded
facts, plus a syntactic check for general column-column comparisons.
:class:`ConditionSet` is the only code that folds; the canonicalizer
(:mod:`repro.core.canonical`) renders its key from the same set, so the
two can never disagree about what a conjunction means.

The second half of the module is the *containment signature*: what a
stored definition needs of any query it could subsume, digested once so
the subsumption walk can ask the first question above of a whole
candidate before it enumerates a single occurrence mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from repro.relational.expressions import FLIPPED, Col, Comparison, Lit, holds
from repro.caql.psj import PSJQuery, column, parse_column


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


def encode_constant(value: object) -> str:
    """A total-ordered, collision-free rendering of a canonical constant."""
    v = canonical_constant(value)
    return f"{type(v).__name__}!{v!r}"


def comparability_kind(value: object) -> str:
    """Comparability kind: values of one kind never raise on comparison."""
    if isinstance(value, (bool, int, float)):
        return "num"
    return type(value).__name__


# -- the fold ------------------------------------------------------------------------


class _Bound(NamedTuple):
    value: object
    strict: bool  # True for < / >, False for <= / >=


@dataclass(slots=True)
class _Interval:
    """One comparability kind's folded range bounds."""

    lower: _Bound | None = None
    upper: _Bound | None = None

    def admits(self, value: object) -> bool:
        """False when a bound rules ``value`` out (a type clash does)."""
        lower, upper = self.lower, self.upper
        if lower is not None and not holds(value, ">" if lower.strict else ">=", lower.value):
            return False
        return upper is None or holds(value, "<" if upper.strict else "<=", upper.value)


_NO_BOUNDS = _Interval()  # shared, never written to


def _fold_lower(interval: _Interval, value: object, strict: bool) -> None:
    """Tighten ``interval``'s lower bound with ``> / >= value``."""
    current = interval.lower
    if (
        current is None
        or holds(value, ">", current.value)
        or (value == current.value and strict and not current.strict)
    ):
        interval.lower = _Bound(value, strict)


def _fold_upper(interval: _Interval, value: object, strict: bool) -> None:
    """Tighten ``interval``'s upper bound with ``< / <= value``.

    Module-level on purpose: this is the interval-folding seam the
    planted-bug acceptance test replaces with a conjunct-dropping
    mutant (mirroring PR 5's ``derive_full`` seam).
    """
    current = interval.upper
    if (
        current is None
        or holds(value, "<", current.value)
        or (value == current.value and strict and not current.strict)
    ):
        interval.upper = _Bound(value, strict)


@dataclass(slots=True)
class _ClassInfo:
    """Folded constraints for one equivalence class of columns."""

    #: Member columns, in order of first mention.
    columns: list[str] = field(default_factory=list)
    pinned: object | None = None  # equality constant (meaningful with has_pin)
    has_pin: bool = False
    #: Comparability kind -> that kind's bounds (empty once pinned).
    intervals: dict[str, _Interval] = field(default_factory=dict)
    #: ``!=`` constants, ``==``-deduplicated; a list, so an unhashable
    #: constant is a value like any other.
    excluded: list[object] = field(default_factory=list)
    #: :meth:`literals` as the canonical key renders them after the
    #: class's column, ``" op constant"`` with the constant encoded
    #: (:func:`encode_constant`); filled once the fold has settled.
    spelled: list[str] = field(default_factory=list, compare=False, repr=False)

    def admits(self, value: object) -> bool:
        """False when some bound of the class rules ``value`` out."""
        return all(interval.admits(value) for interval in self.intervals.values())

    def settle(self) -> bool:
        """Resolve the folded facts; False when they contradict.

        A pin absorbs every other constraint (each is simply evaluated on
        the pinned value — exactly what execution would do row by row); a
        closed non-strict interval collapses to a pin; exclusions that the
        interval of their own kind already rules out are dropped.
        """
        if not self.has_pin:
            for interval in self.intervals.values():
                lower, upper = interval.lower, interval.upper
                if lower is None or upper is None:
                    continue
                if holds(lower.value, ">", upper.value):
                    return False
                if lower.value == upper.value:
                    if lower.strict or upper.strict:
                        return False
                    self.pinned, self.has_pin = lower.value, True
                    break
        excluded = self.excluded
        if self.has_pin:
            pinned = self.pinned
            if (self.intervals and not self.admits(pinned)) or (
                excluded and any(pinned == v for v in excluded)
            ):
                return False
            self.intervals, self.excluded = {}, []
            return True
        if excluded:
            self.excluded = [
                value
                for value in excluded
                if self.intervals.get(comparability_kind(value), _NO_BOUNDS).admits(value)
            ]
        return True

    def literals(self) -> Iterator[tuple[str, object]]:
        """The settled facts as ``(op, constant)`` conditions on the class."""
        if self.has_pin:
            yield "=", self.pinned
        for kind in sorted(self.intervals):
            lower, upper = self.intervals[kind].lower, self.intervals[kind].upper
            if lower is not None:
                yield (">" if lower.strict else ">="), lower.value
            if upper is not None:
                yield ("<" if upper.strict else "<="), upper.value
        for value in self.excluded:
            yield "!=", value

    def ranges(self) -> dict[str, _Interval]:
        """Per kind, the range the class lies in (a pin is a closed point)."""
        if self.has_pin:
            point = _Bound(self.pinned, False)
            return {comparability_kind(self.pinned): _Interval(point, point)}
        return self.intervals


#: What a column the set never constrains reads as: one shared instance,
#: never written to.
_UNCONSTRAINED = _ClassInfo()


def _before(upper: _Bound | None, lower: _Bound | None, strict: bool) -> bool:
    """True when everything within ``upper`` is ``<`` (``strict``) or
    ``<=`` everything within ``lower``."""
    if upper is None or lower is None:
        return False
    if strict and not (upper.strict or lower.strict):
        return holds(upper.value, "<", lower.value)
    return holds(upper.value, "<=", lower.value)


def _digest(conditions: Iterable[Comparison]):
    """What a conjunction's fold reads of its columns alone: the
    column -> class root map (flattened), the classes' members, the
    column-vs-literal conditions as ``(root, op, value)`` in condition
    order, and the column-to-column conditions between classes (see
    :func:`_between`)."""
    parent: dict[str, str] = {}

    def find(col: str) -> str:
        # Iterative, so the closure holds no reference to itself: a
        # self-recursive closure is a reference cycle, and every fold
        # would then wait for the cyclic collector to be freed.
        root = parent.setdefault(col, col)
        while (up := parent[root]) != root:
            root = up
        while col != root:
            parent[col], col = root, parent[col]
        return root

    literal: list[tuple[str, str, object]] = []
    general: list[tuple[str, str, str]] = []
    for condition in conditions:
        # Read in :meth:`Comparison.normalized` form: the constant on
        # the right, column-column operands in name order.
        left, op, right = condition.left, condition.op, condition.right
        if isinstance(right, Lit):
            if isinstance(left, Lit):
                continue  # literal vs literal: constant-folded upstream
            col, value = left.name, right.value
        elif isinstance(left, Lit):
            col, op, value = right.name, FLIPPED[op], left.value
        else:
            left, right = left.name, right.name
            if right < left:
                left, op, right = right, FLIPPED[op], left
            if op == "=":
                left_root, right_root = find(left), find(right)
                if left_root != right_root:
                    parent[left_root] = right_root
            else:
                parent.setdefault(left, left)
                parent.setdefault(right, right)
                general.append((left, op, right))
            continue
        parent.setdefault(col, col)
        literal.append((col, op, value))
    # Group the columns by class root, flattening as it goes (``find``
    # points every column on a path straight at its root), so from here
    # on ``_find`` is one lookup and writes nothing.
    members: dict[str, list[str]] = {}
    for col, up in parent.items():
        root = up if up == col else find(col)
        columns = members.get(root)
        if columns is None:
            columns = members[root] = []
        columns.append(col)
    return (
        parent,
        members,
        [(parent[col], op, value) for col, op, value in literal],
        _between(parent, general),
    )


def _between(
    parent: dict[str, str], general: list[tuple[str, str, str]]
) -> tuple[list[tuple[str, str, str]], bool]:
    """The column-to-column conditions as ``(left root, op, right root)``
    between different classes, deduplicated, and False when one relates a
    class to itself by ``<``, ``>`` or ``!=`` (then only the conditions
    before it, as the fold leaves them)."""
    between: list[tuple[str, str, str]] = []
    for left, op, right in general:
        entry = (parent[left], op, parent[right])
        if entry[0] == entry[2]:
            if op in ("<", ">", "!="):
                return between, False  # x < x / x != x: never holds
            continue  # x <= x / x >= x: always holds
        if entry not in between:
            between.append(entry)
    return between, True


class FoldPlan:
    """The constant-free half of a fold, digested once per query shape.

    Built from a conjunction whose literals are slots
    (:class:`~repro.caql.eval.Slot`: an index into the constants an ask
    binds, and the constant's comparability kind) rather than values:
    the equivalence classes, each slot-bearing condition's class and
    kind, and the column-to-column conditions between classes.
    :meth:`ConditionSet.from_plan` starts from it and folds only the
    constants.
    """

    __slots__ = ("parent", "members", "literal", "general", "consistent")

    def __init__(self, conditions: Iterable[Comparison]):
        parent, members, literal, (general, consistent) = _digest(conditions)
        #: Column -> its class root (shared, read-only, by every bound fold).
        self.parent = parent
        #: ``(root, member columns)`` per class, in fold order; every
        #: bound fold's class shares the list (nothing writes to it).
        self.members = tuple(members.items())
        #: ``(root, op, slot index, kind)`` per column-vs-literal condition.
        self.literal = tuple(
            (root, op, slot.index, slot.kind) for root, op, slot in literal
        )
        self.general = tuple(general)
        #: False when a column-to-column condition alone is a contradiction.
        self.consistent = consistent


class ConditionSet:
    """A conjunction of conditions, folded for implication queries.

    The one fold of a conjunction: the implication questions below and the
    canonical key (:mod:`repro.core.canonical` reads :attr:`classes` and
    :attr:`general`) are answered from the same facts.  It is entered
    from the conditions, or — for a query bound from a shape plan — from
    the shape's :class:`FoldPlan` and the ask's constants
    (:meth:`from_plan`); both fold the constants in :meth:`_fold`.

    Answers are independent of conjunct order: bounds are folded in a
    canonical order and per comparability kind, so no spelling of one
    conjunction can be planned differently from another.

    Immutable once built: the equivalence classes are flattened and
    satisfiability decided at construction, and no query method writes to
    the set, so one set can serve every probe of its definition."""

    def __init__(self, conditions: Iterable[Comparison]):
        parent, members, literal, (general, consistent) = _digest(conditions)
        #: column -> root of its equivalence class, for every column mentioned.
        self._parent: dict[str, str] = parent
        #: class root -> folded facts (partial when not :attr:`satisfiable`).
        self.classes: dict[str, _ClassInfo] = {
            root: _ClassInfo(columns) for root, columns in members.items()
        }
        #: Non-equality column-column conditions between *different*
        #: classes, as ``(left root, op, right root)``, deduplicated.
        self.general: list[tuple[str, str, str]] = []
        #: False when the fold proved that no assignment satisfies the set.
        self.satisfiable = self._fold(
            [(root, op, value, None) for root, op, value in literal], general, consistent, None
        )

    @classmethod
    def from_plan(cls, plan: FoldPlan, values: list) -> "ConditionSet":
        """The fold of the conjunction ``plan`` was digested from, with
        slot ``i`` bound to ``values[i]``: equal, attribute for attribute,
        to folding that conjunction's conditions from scratch."""
        folded = cls.__new__(cls)
        folded._parent = plan.parent
        folded.classes = {root: _ClassInfo(columns) for root, columns in plan.members}
        folded.general = []
        folded.satisfiable = folded._fold(plan.literal, plan.general, plan.consistent, values)
        return folded

    # -- digestion --------------------------------------------------------------
    def _fold(self, literal, general, consistent: bool, values: list | None) -> bool:
        """Fold the column-vs-literal conditions ``(root, op, value, kind)``
        into the classes (``kind`` None: read off the value; with
        ``values``, ``value`` is the index of the value in it), then take
        ``general`` (:func:`_between`); False on a contradiction, leaving
        the facts folded so far."""
        classes = self.classes
        bounds: dict[str, list[tuple[str, object, str | None]]] = {}
        for root, op, value, kind in literal:
            if values is not None:
                value = values[value]
            info = classes[root]
            if op == "=":
                if not info.has_pin:
                    info.pinned, info.has_pin = value, True
                elif value != info.pinned:
                    return False
            elif op == "!=":
                if not any(value == seen for seen in info.excluded):
                    info.excluded.append(value)
            else:
                entries = bounds.get(root)
                if entries is None:
                    entries = bounds[root] = []
                entries.append((op, value, kind))
        #: ``id(constant)`` -> its encoding: each constant is encoded at most
        #: once per fold.  Ids are sound keys here, as every constant is
        #: held by ``literal`` until the fold is done.
        encoded: dict[int, str] = {}
        for root, entries in bounds.items():
            intervals = classes[root].intervals
            # Canonical digestion order, so folding (which calls ``holds``
            # pairwise) cannot depend on source conjunct order.
            if len(entries) > 1:
                for _op, value, _ in entries:
                    encoded[id(value)] = encode_constant(value)
                entries.sort(key=lambda e: (e[0], encoded[id(e[1])]))
            for op, value, kind in entries:
                if kind is None:
                    kind = comparability_kind(value)
                interval = intervals.get(kind)
                if interval is None:
                    interval = intervals[kind] = _Interval()
                if op[0] == "<":
                    _fold_upper(interval, value, op == "<")
                else:
                    _fold_lower(interval, value, op == ">")
        for info in classes.values():
            if (info.has_pin or info.intervals or info.excluded) and not info.settle():
                return False

        self.general = list(general)
        if not consistent:
            return False
        for info in classes.values():
            if info.has_pin or info.intervals or info.excluded:
                spelled = info.spelled
                for op, value in info.literals():
                    spelled.append(f" {op} {encoded.get(id(value)) or encode_constant(value)}")
        return True

    def _find(self, col: str) -> str:
        """The root of the column's equivalence class (itself when the set
        never mentions it)."""
        return self._parent.get(col, col)

    def _info(self, col: str) -> _ClassInfo:
        """Read-only class info (shared empty default)."""
        return self.classes.get(self._parent.get(col, col), _UNCONSTRAINED)

    # -- queries -----------------------------------------------------------------
    def same_class(self, a: str, b: str) -> bool:
        """True when equalities force the two columns equal."""
        return self._find(a) == self._find(b)

    def pinned_value(self, col: str) -> tuple[bool, object]:
        """(True, v) when the column is forced to the single value v: an
        equality constant, or a closed ``[v, v]`` range."""
        info = self._info(col)
        return info.has_pin, info.pinned

    def bounds(self, col: str) -> bool:
        """False when the set is satisfiable and puts no constant on the
        column's class: then it implies no column-vs-literal condition on
        the column (:meth:`implies_literal` is False whatever the literal)."""
        info = self._info(col)
        return not self.satisfiable or info.has_pin or bool(info.intervals or info.excluded)

    def implies(self, condition: Comparison) -> bool:
        """True only if every assignment satisfying this set satisfies
        ``condition``.  (An unsatisfiable set implies everything.)"""
        condition = condition.normalized()
        left, op, right = condition.left, condition.op, condition.right
        if isinstance(left, Lit):  # normalized: then so is ``right``
            return not self.satisfiable or holds(left.value, op, right.value)
        if isinstance(right, Lit):
            return self.implies_literal(left.name, op, right.value)
        return not self.satisfiable or self._implies_col_col(left.name, op, right.name)

    def implies_literal(self, col: str, op: str, value: object) -> bool:
        """:meth:`implies` for the normalized condition ``col op value``,
        without building the :class:`Comparison` — the one place a
        column-vs-literal implication is decided."""
        if not self.satisfiable:
            return True
        info = self._info(col)
        if info.has_pin:
            return holds(info.pinned, op, value)
        if op == "=":
            return False  # unpinned class can take other values
        if op == "!=":
            return any(value == seen for seen in info.excluded) or not info.admits(value)
        interval = info.intervals.get(comparability_kind(value), _NO_BOUNDS)
        if op[0] == "<":
            bound = interval.upper
            # col <= u guarantees col < value only when u < value.
            return bound is not None and holds(
                bound.value, "<" if op == "<" and not bound.strict else "<=", value
            )
        bound = interval.lower
        return bound is not None and holds(
            bound.value, ">" if op == ">" and not bound.strict else ">=", value
        )

    def _implies_col_col(self, a: str, op: str, b: str) -> bool:
        if op == "=" and self.same_class(a, b):
            return True
        if op in (">", ">="):
            a, op, b = b, FLIPPED[op], a
        pinned_a, value_a = self.pinned_value(a)
        pinned_b, value_b = self.pinned_value(b)
        if op == "=":
            return pinned_a and pinned_b and value_a == value_b
        # Syntactic presence (through equivalence classes), either spelling.
        root_a, root_b = self._find(a), self._find(b)
        if (root_a, op, root_b) in self.general or (
            root_b, FLIPPED[op], root_a
        ) in self.general:
            return True
        # Derivation from pinned values / bounds of one comparability kind.
        if pinned_a and pinned_b:
            return holds(value_a, op, value_b)
        ranges_b = self._info(b).ranges()
        for kind, range_a in self._info(a).ranges().items():
            range_b = ranges_b.get(kind)
            if range_b is None:
                continue
            if _before(range_a.upper, range_b.lower, op != "<="):
                return True
            # Disjoint the other way round implies inequality just as well.
            if op == "!=" and _before(range_b.upper, range_a.lower, True):
                return True
        return False


# ---------------------------------------------------------------------------
# containment signature
# ---------------------------------------------------------------------------

#: ``(pred, arity)`` — what two occurrences must share to map onto each other.
RelationKey = tuple[str, int]

#: ``(relation, argument position)``: where a pin sits, in an element's
#: signature or at a query occurrence.
PinSlot = tuple[RelationKey, int]

#: A condition operand with its column pre-split: ``(tag, position)`` for a
#: qualified column, the :class:`Lit` itself otherwise.
SplitOperand = tuple[str, int] | Lit

#: Why a signature rules a query out: ``(relation, tag)``.  With ``tag``
#: None the query has fewer occurrences of ``relation`` than the element;
#: otherwise no query occurrence of ``relation`` implies the literal
#: conditions of element occurrence ``tag``.
SignatureRejection = tuple[RelationKey, str | None]


def column_literal(condition: Comparison) -> tuple[str, str, object] | None:
    """``(column, op, value)`` of a column-vs-literal condition in
    :meth:`Comparison.normalized` form (as :meth:`ConditionSet.implies_literal`
    is asked), None for any other condition."""
    norm = condition.normalized()
    if type(norm.left) is Col and type(norm.right) is Lit:
        return norm.left.name, norm.op, norm.right.value
    return None


def _split(operand: Col | Lit) -> SplitOperand:
    return parse_column(operand.name) if isinstance(operand, Col) else operand


@dataclass(frozen=True, slots=True)
class ContainmentSignature:
    """What *any* subsumption match of a stored definition needs of a query.

    A small digest of an element's definition, computed once per
    definition and independent of every query's tags.  A match maps
    each element occurrence injectively onto a query occurrence of the same
    relation and needs the query to imply every element condition under
    that mapping; so the query must have at least as many occurrences of
    each relation, and every element occurrence needs *some* same-relation
    query occurrence at which its column-vs-literal conditions are implied.
    :meth:`ContainmentProbe.rejection` tests exactly that, before any
    mapping is enumerated.
    """

    #: Per occurrence, in definition order: ``(tag, relation, literal
    #: conditions)``, each condition normalized to ``(argument position,
    #: op, value)`` — the occurrence's pins, bounds and exclusions.
    occurrences: tuple[
        tuple[str, RelationKey, tuple[tuple[int, str, object], ...]], ...
    ]
    #: How many occurrences of each relation the definition has.
    relation_counts: tuple[tuple[RelationKey, int], ...]
    #: Every condition of the definition, operands pre-split, so renaming
    #: one under an occurrence mapping is a lookup instead of a parse.
    conditions: tuple[tuple[SplitOperand, str, SplitOperand], ...]
    #: Per occurrence, in definition order: ``(argument position, column)``
    #: for each column the projection drops and no ``=`` literal of the
    #: occurrence pins (a satisfiable query implying the pin meets its own
    #: conditions there, which the pin then implies).
    dropped: tuple[tuple[tuple[int, str], ...], ...]
    #: The fold of the definition's conditions (its canonical form's).
    guarantees: ConditionSet = field(compare=False, repr=False)

    @classmethod
    def of(cls, definition: PSJQuery) -> "ContainmentSignature":
        """The signature of ``definition`` (the only constructor in use),
        built once per definition: the class is frozen, so the signature is
        kept in the instance dict beside its structural key and canonical
        form, and every holder of one definition shares it."""
        carried = definition.__dict__
        signature = carried.get("_signature")
        if signature is not None:
            return signature
        from repro.core.canonical import canonicalize  # repro.core imports this module

        kept = {entry for entry in definition.projection if isinstance(entry, str)}
        literal: dict[str, list[tuple[int, str, object]]] = {}
        for col, op, value in filter(None, map(column_literal, definition.conditions)):
            tag, position = parse_column(col)
            literal.setdefault(tag, []).append((position, op, value))
        counts: dict[RelationKey, int] = {}
        for occ in definition.occurrences:
            relation = (occ.pred, occ.arity)
            counts[relation] = counts.get(relation, 0) + 1
        signature = carried["_signature"] = cls(
            occurrences=tuple(
                (occ.tag, (occ.pred, occ.arity), tuple(literal.get(occ.tag, ())))
                for occ in definition.occurrences
            ),
            relation_counts=tuple(counts.items()),
            conditions=tuple(
                (_split(c.left), c.op, _split(c.right))
                for c in definition.conditions
            ),
            dropped=tuple(
                tuple(
                    (p, c)
                    for p, c in enumerate(occ.columns())
                    if c not in kept
                    and not any(at == p and op == "=" for at, op, _ in literal.get(occ.tag, ()))
                )
                for occ in definition.occurrences
            ),
            guarantees=canonicalize(definition).conditions,
        )
        return signature

    def renamed_conditions(self, tag_map: dict[str, str]) -> list[Comparison]:
        """The definition's conditions with every column moved from element
        occurrence ``tag`` to query occurrence ``tag_map[tag]``."""

        def rename(operand: SplitOperand) -> Col | Lit:
            if isinstance(operand, Lit):
                return operand
            tag, position = operand
            return Col(column(tag_map[tag], position))

        return [
            Comparison(rename(left), op, rename(right))
            for left, op, right in self.conditions
        ]


def occurrences_by_relation(occurrences) -> dict[RelationKey, list[tuple[str, list[str]]]]:
    """Per ``(pred, arity)``, each occurrence's tag and column names, in
    occurrence order: the query side :class:`ContainmentProbe` tests."""
    relations: dict[RelationKey, list[tuple[str, list[str]]]] = {}
    for occ in occurrences:
        relations.setdefault((occ.pred, occ.arity), []).append((occ.tag, occ.columns()))
    return relations


class ContainmentProbe:
    """The query side of the signature test, built once per subsumption
    probe: the query's occurrences by relation (tag and column names) and
    ``conditions``, the fold of its conditions that the caller already
    holds (the one its canonical form carries)."""

    def __init__(self, query: PSJQuery, conditions: ConditionSet):
        self.query = query
        self.conditions = conditions
        #: Query column -> its column-vs-literal conditions as ``(op,
        #: value)``, read off the query on first need.
        self._bounded: dict[str, list[tuple[str, object]]] | None = None
        #: The columns the query projects, read off it on first need.
        self._projected: set[str] | None = None
        shape = query.__dict__.get("_shape")
        #: The query's occurrences by relation: its shape plan's, when a
        #: shape plan bound it (every ask of a shape has the same).
        self.occurrences = (
            occurrences_by_relation(query.occurrences) if shape is None else shape.by_relation()
        )

    def pins(self) -> dict[PinSlot, list[object]] | None:
        """Per ``(relation, argument position)``, the value each query
        occurrence of that relation is pinned to there (an equality
        constant, a closed ``[v, v]`` range, or either through an equality
        class) — what the cache's pin index is asked under.  None for an
        unsatisfiable query: it implies every literal, so no pin can rule
        an element out."""
        conditions = self.conditions
        if not conditions.satisfiable:
            return None
        pins: dict[PinSlot, list[object]] = {}
        for relation, occurrences in self.occurrences.items():
            for _tag, columns in occurrences:
                for position, col in enumerate(columns):
                    pinned, value = conditions.pinned_value(col)
                    if pinned:
                        pins.setdefault((relation, position), []).append(value)
        return pins

    def rejection(self, signature: ContainmentSignature) -> SignatureRejection | None:
        """Why no occurrence mapping of the element onto the query can
        succeed, or None when the signature cannot tell.

        Only conditions necessary for *any* match, partial ones included,
        and every implication is asked of the query's own
        :class:`ConditionSet` — the one the full test asks — so a rejection
        here means the full test yields nothing (an unsatisfiable query
        implies everything, and is never rejected on a condition).
        """
        occurrences = self.occurrences
        for relation, needed in signature.relation_counts:
            if len(occurrences.get(relation, ())) < needed:
                return relation, None
        implied = self.conditions.implies_literal
        for tag, relation, literal in signature.occurrences:
            if not literal:
                continue
            for _q_tag, columns in occurrences[relation]:
                for position, op, value in literal:
                    if not implied(columns[position], op, value):
                        break
                else:
                    break  # this query occurrence implies them all
            else:
                return relation, tag
        return None

    def drops_bounded(self, signature: ContainmentSignature) -> bool:
        """True when some element occurrence has no same-relation query
        occurrence that implies its literal conditions, projects none of
        its :attr:`~ContainmentSignature.dropped` columns and bounds none
        of them by a condition the element does not imply (the full test
        would have to return or re-apply a column the stored rows lack):
        then nothing matches."""
        bounded, projected = self._bounded, self._projected
        if bounded is None:
            bounded = self._bounded = {}
            for col, op, value in filter(None, map(column_literal, self.query.conditions)):
                bounded.setdefault(col, []).append((op, value))
            projected = self._projected = {
                entry for entry in self.query.projection if type(entry) is str
            }
        implied = self.conditions.implies_literal
        guaranteed = signature.guarantees.implies_literal
        for (_tag, relation, literal), dropped in zip(signature.occurrences, signature.dropped):
            if not dropped:
                continue
            for _q_tag, columns in self.occurrences[relation]:
                if all(
                    columns[position] not in projected
                    and all(
                        guaranteed(element_col, op, value)
                        for op, value in bounded.get(columns[position], ())
                    )
                    for position, element_col in dropped
                ) and all(implied(columns[p], op, value) for p, op, value in literal):
                    break  # this query occurrence can take the element's
            else:
                return True
        return False
