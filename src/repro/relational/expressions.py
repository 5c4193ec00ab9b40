"""Row-level predicates and scalar expressions over relation rows.

Conditions are built from attribute references and literals combined with
comparison operators; conjunctions of these form the selection/join
conditions of PSJ queries.  A conjunction compiles against a schema to
generated Python — a row predicate for the whole conjunction and its batch
twin — and this module is the only place that happens: the tuple operators
and the remote engine get theirs from :func:`compile_conjunction` and
:func:`compile_selection`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

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

#: How many entries every per-shape table keeps, first in first out: the
#: generated code below, ``caql.eval``'s shape plans, each link's request
#: templates and each cache element's match plans (docs/caching.md lists
#: them).  All four go through :func:`keep`.
SHAPE_BOUND = 1024


def keep(table: dict, key, value):
    """Set ``table[key] = value`` under :data:`SHAPE_BOUND`: a full table
    first drops its oldest entry.  Returns ``value``."""
    if len(table) >= SHAPE_BOUND:
        del table[next(iter(table))]
    table[key] = value
    return value


#: Generated code per conjunction *shape*: ``(predicate factory, source)``.
#: Constants are not part of a shape, so a query stream whose constants
#: never repeat still generates code once per shape.
_SHAPE_CACHE: dict[tuple, tuple[Callable, str]] = {}


def reset_predicate_cache() -> None:
    """Drop all generated code (test helper).  A kept match plan holds its
    own factories (``repro.core.subsumption``) and keeps them."""
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
    return _bind(conditions, schema)[0]


def compile_selection(
    conditions: Sequence[Comparison], schema: Schema
) -> Callable[[Iterable[tuple]], list[tuple]]:
    """The batch twin of :func:`compile_conjunction`: the rows it accepts,
    in order, by one loop over the same terms under one ``try``.  A type
    clash recomputes the whole input through the row predicate (so it
    excludes only its own row): the input may be read twice."""
    return _bind(conditions, schema)[1]


def _bind(conditions: Sequence[Comparison], schema: Schema) -> tuple[Callable, Callable]:
    """The ``(row predicate, batch kernel)`` of a selection no plan
    prepared: its shape derived here, bound to its literals."""
    shape, literals = selection_shape(conditions, schema)
    return kernel_factory(shape)(*literals)


def selection_shape(conditions: Sequence[Comparison], schema: Schema) -> tuple[tuple, list]:
    """The shape of ``conditions`` over ``schema`` and their literals in
    slot order (:func:`compile_conjunction`)."""
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
    return tuple(shape), literals


def kernel_factory(shape: tuple) -> Callable:
    """The generated factory of ``shape``: called with the literals in slot
    order, it returns the ``(row predicate, batch kernel)`` pair."""
    code = _SHAPE_CACHE.get(shape)
    if code is None:
        code = keep(_SHAPE_CACHE, shape, _generate(shape))
    return code[0]


#: The generated module: a factory over the literal slots returning the row
#: predicate and its batch twin, both built from one ``{test}`` term string.
_TEMPLATE = """\
def _make({slots}):
    def _row(row):
        try:
            return {test}
        except TypeError:
            return False
    def _rows(rows):
        try:
            return [row for row in rows if {test}]
        except TypeError:
            return [row for row in rows if _row(row)]
    return _row, _rows
"""


def _generate(shape: tuple) -> tuple[Callable, str]:
    """Emit the functions of ``shape`` behind a factory whose arguments
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
    source = _TEMPLATE.format(slots=slots, test=" and ".join(terms) or "True")
    namespace: dict = {}
    exec(compile(source, "<conjunction>", "exec"), namespace)
    return namespace["_make"], source
