"""Row-level predicates and scalar expressions over relation rows.

Conditions are built from attribute references and literals combined with
comparison operators; conjunctions of these form the selection/join
conditions of PSJ queries.  A conjunction compiles against a schema to
generated Python — one function for the whole conjunction — and this module
is the only place that happens: the tuple operators and the remote engine
both get their predicates from :func:`compile_conjunction`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from repro.common.errors import SchemaError
from repro.relational.schema import Schema

_OPS: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}

#: Operator with both sides swapped (for normalization).
FLIPPED = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


@dataclass(frozen=True, slots=True)
class Col:
    """A reference to an attribute by name."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Lit:
    """A literal value."""

    value: object

    def __str__(self) -> str:
        return repr(self.value)


Operand = Union[Col, Lit]


@dataclass(frozen=True, slots=True)
class Comparison:
    """``left op right`` where the operands are columns or literals."""

    left: Operand
    op: str
    right: Operand

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise SchemaError(f"unknown comparison operator {self.op!r}")

    def normalized(self) -> "Comparison":
        """Constant, if any, on the right; column names ordered on col-col.

        Normalization makes structural equality of conditions meaningful,
        which the subsumption checker relies on.  An already-normal
        condition (every one ``psj_from_literals`` emits) is returned as is.
        """
        left, right = self.left, self.right
        if isinstance(right, Col) and (
            isinstance(left, Lit) or right.name < left.name
        ):
            return Comparison(right, FLIPPED[self.op], left)
        return self

    def columns(self) -> set[str]:
        """The column names this condition references."""
        cols = set()
        if isinstance(self.left, Col):
            cols.add(self.left.name)
        if isinstance(self.right, Col):
            cols.add(self.right.name)
        return cols

    def is_col_const(self) -> bool:
        """True for ``column op literal`` (after normalization)."""
        norm = self.normalized()
        return isinstance(norm.left, Col) and isinstance(norm.right, Lit)

    def is_col_col(self) -> bool:
        """True for a condition between two columns."""
        return isinstance(self.left, Col) and isinstance(self.right, Col)

    def rename_columns(self, mapping: dict[str, str]) -> "Comparison":
        """A copy with column names translated through ``mapping``."""

        def translate(operand: Operand) -> Operand:
            if isinstance(operand, Col):
                return Col(mapping.get(operand.name, operand.name))
            return operand

        return Comparison(translate(self.left), self.op, translate(self.right))

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


def holds(left: object, op: str, right: object) -> bool:
    """Evaluate ``left op right`` on concrete values (False on type clash)."""
    try:
        return _OPS[op](left, right)
    except TypeError:
        return False


# ---------------------------------------------------------------------------
# predicate compilation
# ---------------------------------------------------------------------------

#: CAQL comparison operator -> Python source operator.  These six strings,
#: integer positions and slot names are all that generated source is built
#: from: no column name and no constant of a query ever becomes code.
_PY_OPS = {"=": "==", "!=": "!=", "<": "<", ">": ">", "<=": "<=", ">=": ">="}

#: Generated code per conjunction *shape*: ``(predicate factory, source)``.
#: Constants are not part of a shape, so a query stream whose constants
#: never repeat still generates code once per shape.
_SHAPE_CACHE: dict[tuple, tuple[Callable, str]] = {}
_SHAPE_CACHE_LIMIT = 2048


def reset_predicate_cache() -> None:
    """Drop all generated code (test helper)."""
    _SHAPE_CACHE.clear()


def compile_conjunction(
    conditions: Sequence[Comparison], schema: Schema
) -> Callable[[tuple], bool]:
    """A row predicate that is the AND of every condition.

    Code is generated per *shape*: ``((left, op, right), ...)`` in condition
    order, an operand being a column's position in ``schema`` (an unknown
    column raises ``SchemaError`` here, at compile time) or ``~slot`` for
    the literal that fills argument ``slot`` of the generated factory.

    A type clash anywhere excludes the row: the whole conjunction runs
    under one ``try/except TypeError -> False``, which is what a guard per
    condition would give, since ``and`` stops at the first false term.
    """
    shape = []
    literals: list = []
    for condition in conditions:
        sides = []
        for operand in (condition.left, condition.right):
            if isinstance(operand, Col):
                sides.append(schema.position(operand.name))
            else:
                literals.append(operand.value)
                sides.append(-len(literals))  # == ~slot
        shape.append((sides[0], condition.op, sides[1]))
    key = tuple(shape)
    code = _SHAPE_CACHE.get(key)
    if code is None:
        if len(_SHAPE_CACHE) >= _SHAPE_CACHE_LIMIT:
            _SHAPE_CACHE.clear()  # bounded memory; regeneration is cheap
        code = _SHAPE_CACHE[key] = _generate(key)
    make_row, _source = code
    return make_row(*literals)


def _generate(shape: tuple) -> tuple[Callable, str]:
    """Emit the row predicate of ``shape`` behind a factory whose arguments
    are the literals (so they are bound, never spelled)."""

    def side(operand: int) -> str:
        return f"row[{operand}]" if operand >= 0 else f"_k{~operand}"

    terms = [f"{side(left)} {_PY_OPS[op]} {side(right)}" for left, op, right in shape]
    slots = ", ".join(
        f"_k{~operand}"
        for left, _op, right in shape
        for operand in (left, right)
        if operand < 0
    )
    source = (
        f"def _make_row({slots}):\n"
        f"    def _row(row):\n"
        f"        try:\n"
        f"            return {' and '.join(terms) or 'True'}\n"
        f"        except TypeError:\n"
        f"            return False\n"
        f"    return _row\n"
    )
    namespace: dict = {}
    exec(compile(source, "<conjunction>", "exec"), namespace)
    return namespace["_make_row"], source
