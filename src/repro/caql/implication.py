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

Method: build equivalence classes of columns from equality conditions, then
derive per-class bounds (lower/upper with strictness), pinned constants,
and excluded values; check each candidate condition against those, plus a
syntactic check for general column-column comparisons.

The second half of the module is the *containment signature*: what a
stored definition needs of any query it could subsume, digested once so
the subsumption walk can ask the first question above of a whole
candidate before it enumerates a single occurrence mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.relational.expressions import Col, Comparison, Lit, holds
from repro.caql.psj import PSJQuery, column, parse_column


@dataclass
class _Bound:
    value: object
    strict: bool  # True for < / >, False for <= / >=


@dataclass
class _ClassInfo:
    """Derived constraints for one equivalence class of columns."""

    pinned: object | None = None  # equality constant (None = unpinned)
    has_pin: bool = False
    lower: _Bound | None = None
    upper: _Bound | None = None
    excluded: set = field(default_factory=set)
    contradictory: bool = False

    def pin(self, value: object) -> None:
        if self.has_pin and self.pinned != value:
            self.contradictory = True
            return
        self.pinned = value
        self.has_pin = True

    def tighten_lower(self, value: object, strict: bool) -> None:
        current = self.lower
        if current is None or holds(value, ">", current.value) or (
            value == current.value and strict and not current.strict
        ):
            self.lower = _Bound(value, strict)

    def tighten_upper(self, value: object, strict: bool) -> None:
        current = self.upper
        if current is None or holds(value, "<", current.value) or (
            value == current.value and strict and not current.strict
        ):
            self.upper = _Bound(value, strict)

    def forced(self) -> tuple[bool, object]:
        """(True, v) when the class can only take the single value v: an
        equality constant, or a closed ``[v, v]`` range."""
        if self.has_pin:
            return True, self.pinned
        lower, upper = self.lower, self.upper
        if (
            lower is not None
            and upper is not None
            and lower.value == upper.value
            and not lower.strict
            and not upper.strict
        ):
            return True, lower.value
        return False, None

    def is_unsatisfiable(self) -> bool:
        if self.contradictory:
            return True
        if self.has_pin:
            if self.pinned in self.excluded:
                return True
            if self.lower is not None and not _within_lower(self.pinned, self.lower):
                return True
            if self.upper is not None and not _within_upper(self.pinned, self.upper):
                return True
        if self.lower is not None and self.upper is not None:
            if holds(self.lower.value, ">", self.upper.value):
                return True
            if self.lower.value == self.upper.value and (self.lower.strict or self.upper.strict):
                return True
        return False


def _within_lower(value: object, bound: _Bound) -> bool:
    op = ">" if bound.strict else ">="
    return holds(value, op, bound.value)


def _within_upper(value: object, bound: _Bound) -> bool:
    op = "<" if bound.strict else "<="
    return holds(value, op, bound.value)


#: What a column the set never constrains reads as: one shared instance,
#: never written to (``excluded`` is a frozenset so a stray ``add`` raises).
_UNCONSTRAINED = _ClassInfo(excluded=frozenset())


class ConditionSet:
    """A conjunction of conditions, digested for implication queries.

    Immutable once built: the equivalence classes are flattened and
    satisfiability decided at construction, and no query method writes to
    the set, so one set can serve a whole subsumption probe."""

    def __init__(self, conditions: Iterable[Comparison]):
        self._conditions = [c.normalized() for c in conditions]
        self._parent: dict[str, str] = {}
        self._general: list[Comparison] = []  # non-equality col-col conditions
        self._build()

    # -- union-find (construction only) ------------------------------------------
    def _root(self, col: str) -> str:
        parent = self._parent.get(col, col)
        if parent == col:
            return col
        root = self._root(parent)
        self._parent[col] = root
        return root

    def _union(self, a: str, b: str) -> None:
        ra, rb = self._root(a), self._root(b)
        if ra != rb:
            self._parent[ra] = rb

    # -- digestion --------------------------------------------------------------
    def _build(self) -> None:
        for condition in self._conditions:
            if condition.op == "=" and condition.is_col_col():
                self._union(condition.left.name, condition.right.name)
        # Flatten: every column points straight at its class root, so from
        # here on ``_find`` is one lookup and writes nothing.
        self._parent = {col: self._root(col) for col in list(self._parent)}
        self._classes: dict[str, _ClassInfo] = {}
        for condition in self._conditions:
            left, op, right = condition.left, condition.op, condition.right
            if isinstance(left, Col) and isinstance(right, Lit):
                info = self._class_info(left.name)
                value = right.value
                if op == "=":
                    info.pin(value)
                elif op == "!=":
                    info.excluded.add(value)
                elif op == "<":
                    info.tighten_upper(value, strict=True)
                elif op == "<=":
                    info.tighten_upper(value, strict=False)
                elif op == ">":
                    info.tighten_lower(value, strict=True)
                elif op == ">=":
                    info.tighten_lower(value, strict=False)
            elif isinstance(left, Col) and isinstance(right, Col) and op != "=":
                self._general.append(condition)
        self._satisfiable = not any(
            info.is_unsatisfiable() for info in self._classes.values()
        )

    def _find(self, col: str) -> str:
        """The root of the column's equivalence class (itself when the set
        never equates it with another)."""
        return self._parent.get(col, col)

    def _class_info(self, col: str) -> _ClassInfo:
        root = self._find(col)
        info = self._classes.get(root)
        if info is None:
            info = _ClassInfo()
            self._classes[root] = info
        return info

    def _info(self, col: str) -> _ClassInfo:
        """Read-only class info (shared empty default)."""
        return self._classes.get(self._find(col), _UNCONSTRAINED)

    # -- queries -----------------------------------------------------------------
    def same_class(self, a: str, b: str) -> bool:
        """True when equalities force the two columns equal."""
        return self._find(a) == self._find(b)

    def pinned_value(self, col: str) -> tuple[bool, object]:
        """(True, v) when the column is forced to the single value v."""
        return self._info(col).forced()

    def implies(self, condition: Comparison) -> bool:
        """True only if every assignment satisfying this set satisfies
        ``condition``.  (An unsatisfiable set implies everything.)"""
        condition = condition.normalized()
        left, op, right = condition.left, condition.op, condition.right
        if isinstance(left, Col) and isinstance(right, Lit):
            return self.implies_literal(left.name, op, right.value)
        if not self._satisfiable:
            return True
        if isinstance(left, Col) and isinstance(right, Col):
            return self._implies_col_col(left.name, op, right.name)
        if isinstance(left, Lit) and isinstance(right, Lit):
            return holds(left.value, op, right.value)
        return False

    def implies_literal(self, col: str, op: str, value: object) -> bool:
        """:meth:`implies` for the normalized condition ``col op value``,
        without building the :class:`Comparison` — the one place a
        column-vs-literal implication is decided."""
        return not self._satisfiable or self._implies_col_lit(col, op, value)

    # -- implication cases ---------------------------------------------------------
    def _implies_col_lit(self, col: str, op: str, value: object) -> bool:
        info = self._info(col)
        pinned, pin = info.forced()
        if pinned:
            return holds(pin, op, value)
        if op == "=":
            return False  # unpinned class can take other values
        if op == "!=":
            if value in info.excluded:
                return True
            if info.lower is not None and not _within_lower(value, info.lower):
                return True
            if info.upper is not None and not _within_upper(value, info.upper):
                return True
            return False
        if op in ("<", "<="):
            if info.upper is None:
                return False
            if op == "<":
                # col <= u (< u) must guarantee col < value.
                if info.upper.strict:
                    return holds(info.upper.value, "<=", value)
                return holds(info.upper.value, "<", value)
            return holds(info.upper.value, "<=", value)
        if op in (">", ">="):
            if info.lower is None:
                return False
            if op == ">":
                if info.lower.strict:
                    return holds(info.lower.value, ">=", value)
                return holds(info.lower.value, ">", value)
            return holds(info.lower.value, ">=", value)
        return False

    def _implies_col_col(self, a: str, op: str, b: str) -> bool:
        if op == "=":
            if self.same_class(a, b):
                return True
            pa, va = self.pinned_value(a)
            pb, vb = self.pinned_value(b)
            return pa and pb and va == vb
        # Syntactic presence (through equivalence classes).
        for general in self._general:
            if general.op == op and self.same_class(general.left.name, a) and self.same_class(
                general.right.name, b
            ):
                return True
        # Derivation from pinned values / bounds.
        pa, va = self.pinned_value(a)
        pb, vb = self.pinned_value(b)
        if pa and pb:
            return holds(va, op, vb)
        info_a, info_b = self._info(a), self._info(b)
        if op in ("<", "<="):
            upper_a = _Bound(va, False) if pa else info_a.upper
            lower_b = _Bound(vb, False) if pb else info_b.lower
            if upper_a is None or lower_b is None:
                return False
            if op == "<":
                if upper_a.strict or lower_b.strict:
                    return holds(upper_a.value, "<=", lower_b.value)
                return holds(upper_a.value, "<", lower_b.value)
            return holds(upper_a.value, "<=", lower_b.value)
        if op in (">", ">="):
            return self._implies_col_col(b, "<" if op == ">" else "<=", a)
        if op == "!=":
            # Disjoint ranges imply inequality.
            upper_a = _Bound(va, False) if pa else info_a.upper
            lower_b = _Bound(vb, False) if pb else info_b.lower
            if upper_a is not None and lower_b is not None:
                if holds(upper_a.value, "<", lower_b.value) or (
                    upper_a.value == lower_b.value and (upper_a.strict or lower_b.strict)
                ):
                    return True
            upper_b = _Bound(vb, False) if pb else info_b.upper
            lower_a = _Bound(va, False) if pa else info_a.lower
            if upper_b is not None and lower_a is not None:
                if holds(upper_b.value, "<", lower_a.value) or (
                    upper_b.value == lower_a.value and (upper_b.strict or lower_a.strict)
                ):
                    return True
            return False
        return False


# ---------------------------------------------------------------------------
# containment signature
# ---------------------------------------------------------------------------

#: ``(pred, arity)`` — what two occurrences must share to map onto each other.
RelationKey = tuple[str, int]

#: A condition operand with its column pre-split: ``(tag, position)`` for a
#: qualified column, the :class:`Lit` itself otherwise.
SplitOperand = tuple[str, int] | Lit

#: Why a signature rules a query out: ``(relation, tag)``.  With ``tag``
#: None the query has fewer occurrences of ``relation`` than the element;
#: otherwise no query occurrence of ``relation`` implies the literal
#: conditions of element occurrence ``tag``.
SignatureRejection = tuple[RelationKey, str | None]


def _split(operand: Col | Lit) -> SplitOperand:
    return parse_column(operand.name) if isinstance(operand, Col) else operand


@dataclass(frozen=True, slots=True)
class ContainmentSignature:
    """What *any* subsumption match of a stored definition needs of a query.

    A small digest of an element's definition, computed once when the
    element is stored and independent of every query's tags.  A match maps
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

    @classmethod
    def of(cls, definition: PSJQuery) -> "ContainmentSignature":
        """The signature of ``definition`` (the only constructor in use)."""
        literal: dict[str, list[tuple[int, str, object]]] = {}
        for condition in definition.conditions:
            norm = condition.normalized()
            if isinstance(norm.left, Col) and isinstance(norm.right, Lit):
                tag, position = parse_column(norm.left.name)
                literal.setdefault(tag, []).append(
                    (position, norm.op, norm.right.value)
                )
        counts: dict[RelationKey, int] = {}
        for occ in definition.occurrences:
            relation = (occ.pred, occ.arity)
            counts[relation] = counts.get(relation, 0) + 1
        return cls(
            occurrences=tuple(
                (occ.tag, (occ.pred, occ.arity), tuple(literal.get(occ.tag, ())))
                for occ in definition.occurrences
            ),
            relation_counts=tuple(counts.items()),
            conditions=tuple(
                (_split(c.left), c.op, _split(c.right))
                for c in definition.conditions
            ),
        )

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


class ContainmentProbe:
    """The query side of the signature test, built once per subsumption
    probe: the query's occurrences by relation (tag and column names) and
    its digested conditions."""

    def __init__(self, query: PSJQuery):
        self.conditions = ConditionSet(query.conditions)
        self.occurrences: dict[RelationKey, list[tuple[str, list[str]]]] = {}
        for occ in query.occurrences:
            self.occurrences.setdefault((occ.pred, occ.arity), []).append(
                (occ.tag, occ.columns())
            )

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
