"""Row-level predicates and scalar expressions over relation rows.

Conditions are built from attribute references and literals combined with
comparison operators; conjunctions of these form the selection/join
conditions of PSJ queries.  A conjunction compiles against a schema to
generated Python — one function for the whole conjunction — and this module
is the only place that happens: the tuple operators, the remote engine and
the columnar kernels all get their predicates from :func:`conjunction_code`.
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

#: The negation of each operator.
NEGATED = {"=": "!=", "!=": "=", "<": ">=", ">": "<=", "<=": ">", ">=": "<"}


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

    def negated(self) -> "Comparison":
        """The logically complementary condition."""
        return Comparison(self.left, NEGATED[self.op], self.right)

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

    def compile(self, schema: Schema) -> Callable[[tuple], bool]:
        """A fast row predicate bound to attribute positions of ``schema``."""
        return compile_conjunction([self], schema)

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


def eq(column: str, value: object) -> Comparison:
    """Shorthand for ``Col(column) = Lit(value)``."""
    return Comparison(Col(column), "=", Lit(value))


def col_eq(left: str, right: str) -> Comparison:
    """Shorthand for an equi-join condition between two columns."""
    return Comparison(Col(left), "=", Col(right))


# ---------------------------------------------------------------------------
# predicate compilation
# ---------------------------------------------------------------------------

#: CAQL comparison operator -> Python source operator.  These six strings,
#: integer positions and slot names are all that generated source is built
#: from: no column name and no constant of a query ever becomes code.
_PY_OPS = {"=": "==", "!=": "!=", "<": "<", ">": ">", "<=": "<=", ">=": ">="}

#: Generated code per conjunction *shape*: ``(row factory, filter factory,
#: source)``.  Constants are not part of a shape, so a query stream whose
#: constants never repeat still generates code once per shape.
_SHAPE_CACHE: dict[tuple, tuple[Callable, Callable, str]] = {}
_SHAPE_CACHE_LIMIT = 2048

#: Observability for tests and benchmarks: a miss is one code generation.
compile_stats = {"hits": 0, "misses": 0}


def reset_predicate_cache() -> None:
    """Drop all generated code and zero the counters (test helper)."""
    _SHAPE_CACHE.clear()
    compile_stats.update(hits=0, misses=0)


def predicate_cache_size() -> int:
    """How many conjunction shapes currently have generated code."""
    return len(_SHAPE_CACHE)


def conjunction_code(
    conditions: Sequence[Comparison], schema: Schema
) -> tuple[tuple[Callable, Callable, str], list]:
    """Generated code for the conjunction's shape, plus its literals.

    The shape is ``((left, op, right), ...)`` in condition order, an operand
    being a column's position in ``schema`` (an unknown column raises
    ``SchemaError`` here, at compile time) or ``~slot`` for the literal that
    fills argument ``slot`` of both factories.  Calling a factory with the
    literals yields the kernel: ``row -> bool``, or ``columns -> indices of
    the selected rows``.
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
        compile_stats["misses"] += 1
        if len(_SHAPE_CACHE) >= _SHAPE_CACHE_LIMIT:
            _SHAPE_CACHE.clear()  # bounded memory; regeneration is cheap
        code = _SHAPE_CACHE[key] = _generate(key)
    else:
        compile_stats["hits"] += 1
    return code, literals


def compile_conjunction(
    conditions: Sequence[Comparison], schema: Schema
) -> Callable[[tuple], bool]:
    """A row predicate that is the AND of every condition.

    A type clash anywhere excludes the row: the whole conjunction runs
    under one ``try/except TypeError -> False``, which is what a guard per
    condition would give, since ``and`` stops at the first false term.
    """
    (make_row, _make_filter, _source), literals = conjunction_code(conditions, schema)
    return make_row(*literals)


def _expression(shape: tuple, ref: Callable[[int], str]) -> str:
    """``shape`` as a Python expression over ``ref(position)`` and slots."""

    def side(operand: int) -> str:
        return ref(operand) if operand >= 0 else f"_k{~operand}"

    terms = [f"{side(left)} {_PY_OPS[op]} {side(right)}" for left, op, right in shape]
    return " and ".join(terms) or "True"


def _generate(shape: tuple) -> tuple[Callable, Callable, str]:
    """Emit both kernels of ``shape``, each behind a factory whose
    arguments are the literals (so they are bound, never spelled)."""
    operands = [operand for left, _op, right in shape for operand in (left, right)]
    slots = ", ".join(f"_k{~operand}" for operand in operands if operand < 0)
    positions = sorted({operand for operand in operands if operand >= 0})
    row_expr = _expression(shape, "row[{}]".format)
    sweep_expr = _expression(shape, "_v{}".format)
    if not positions:
        # Row-independent conjunction (empty, or constant-only terms):
        # evaluate once and keep everything or nothing.
        sweep = (
            f"        try:\n"
            f"            _keep = {sweep_expr}\n"
            f"        except TypeError:\n"
            f"            _keep = False\n"
            f"        if not _keep:\n"
            f"            return []\n"
            f"        return list(range(len(_columns[0]) if _columns else 0))\n"
        )
    else:
        # Sweep only the referenced columns.
        if len(positions) == 1:
            loop_vars = f"_v{positions[0]}"
            iterable = f"_columns[{positions[0]}]"
        else:
            loop_vars = "(" + ", ".join(f"_v{p}" for p in positions) + ")"
            iterable = "zip(" + ", ".join(f"_columns[{p}]" for p in positions) + ")"
        sweep = (
            f"        _out = []\n"
            f"        _append = _out.append\n"
            f"        for _i, {loop_vars} in enumerate({iterable}):\n"
            f"            try:\n"
            f"                if {sweep_expr}:\n"
            f"                    _append(_i)\n"
            f"            except TypeError:\n"
            f"                pass\n"
            f"        return _out\n"
        )
    source = (
        f"def _make_row({slots}):\n"
        f"    def _row(row):\n"
        f"        try:\n"
        f"            return {row_expr}\n"
        f"        except TypeError:\n"
        f"            return False\n"
        f"    return _row\n"
        f"\n"
        f"def _make_filter({slots}):\n"
        f"    def _filter(_columns):\n"
        f"{sweep}"
        f"    return _filter\n"
    )
    namespace: dict = {}
    exec(compile(source, "<conjunction>", "exec"), namespace)
    return namespace["_make_row"], namespace["_make_filter"], source
