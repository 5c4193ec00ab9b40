"""Evaluable (built-in) relations: comparisons and arithmetic.

The paper's problem graphs bottom out in "database relations or built-in
relations (e.g., arithmetic or numeric comparison relations)" (Section 4.1).
Built-ins are evaluated by the IE (or by the CMS, which supports operations
the remote DBMS does not) rather than fetched from the database.

A built-in is registered by predicate signature.  Evaluation takes a ground
or partially-bound atom and yields zero or more substitutions binding its
free variables — the same interface resolution uses for ordinary relations,
so the inference strategies treat both uniformly.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Iterator

from repro.common.errors import EvaluationError
from repro.logic.terms import Atom, Const, Substitution, Var

#: A built-in evaluator: (atom, substitution) -> iterable of substitutions.
BuiltinFn = Callable[[Atom, Substitution], Iterable[Substitution]]

_COMPARISONS: dict[str, Callable[[object, object], bool]] = {
    "<": operator.lt,
    ">": operator.gt,
    "=<": operator.le,
    ">=": operator.ge,
}


class BuiltinRegistry:
    """Maps predicate signatures to evaluators.

    The default registry contains the numeric comparisons, ``=``/``\\=``,
    and a few arithmetic relations (``plus/3``, ``times/3``, ``abs/2``).
    """

    def __init__(self) -> None:
        self._table: dict[tuple[str, int], BuiltinFn] = {}
        #: The registered signatures (read-only; :meth:`register` refreshes
        #: it).  Which literals are built-in depends on nothing else, so
        #: this is what a kept CAQL translation is checked against.
        self.signatures: frozenset[tuple[str, int]] = frozenset()
        self._install_defaults()

    def register(self, pred: str, arity: int, fn: BuiltinFn) -> None:
        """Register (or replace) the evaluator for ``pred/arity``."""
        self._table[(pred, arity)] = fn
        self.signatures = frozenset(self._table)

    def is_builtin(self, atom: Atom) -> bool:
        """True when an evaluator exists for the atom's signature."""
        return atom.signature in self._table

    def evaluate(self, atom: Atom, subst: Substitution) -> Iterator[Substitution]:
        """Run the evaluator; raises :class:`EvaluationError` if unknown."""
        fn = self._table.get(atom.signature)
        if fn is None:
            raise EvaluationError(f"no built-in registered for {atom.pred}/{atom.arity}")
        yield from fn(atom, subst)

    # -- default evaluators ----------------------------------------------------
    def _install_defaults(self) -> None:
        for symbol, op in _COMPARISONS.items():
            self.register(symbol, 2, _comparison(symbol, op))
        self.register("=", 2, _eval_equals)
        self.register("\\=", 2, _eval_not_equals)
        self.register("plus", 3, _arith3("plus", operator.add, operator.sub))
        self.register("times", 3, _arith3("times", operator.mul, _safe_div))
        self.register("abs", 2, _eval_abs)


def _require_ground(atom: Atom, subst: Substitution) -> list[object]:
    values = []
    for arg in atom.args:
        term = subst.apply_term(arg)
        if isinstance(term, Var):
            raise EvaluationError(f"built-in {atom.pred}/{atom.arity} needs ground arguments, got {atom}")
        values.append(term.value)
    return values


def _comparison(symbol: str, op: Callable[[object, object], bool]) -> BuiltinFn:
    def evaluate(atom: Atom, subst: Substitution) -> Iterator[Substitution]:
        left, right = _require_ground(atom, subst)
        try:
            holds = op(left, right)
        except TypeError as exc:
            raise EvaluationError(f"cannot compare {left!r} {symbol} {right!r}") from exc
        if holds:
            yield subst

    return evaluate


def _eval_equals(atom: Atom, subst: Substitution) -> Iterator[Substitution]:
    left = subst.apply_term(atom.args[0])
    right = subst.apply_term(atom.args[1])
    if isinstance(left, Var):
        if isinstance(right, Var):
            yield subst.bind(left, right)
        else:
            yield subst.bind(left, right)
        return
    if isinstance(right, Var):
        yield subst.bind(right, left)
        return
    if left.value == right.value:
        yield subst


def _eval_not_equals(atom: Atom, subst: Substitution) -> Iterator[Substitution]:
    left, right = _require_ground(atom, subst)
    if left != right:
        yield subst


def _arith3(name: str, forward: Callable, inverse: Callable) -> BuiltinFn:
    """An invertible three-place arithmetic relation.

    ``name(A, B, C)`` holds when ``forward(A, B) == C``.  Any single unbound
    argument is solved for; with all arguments bound it acts as a check.
    """

    def evaluate(atom: Atom, subst: Substitution) -> Iterator[Substitution]:
        terms = [subst.apply_term(a) for a in atom.args]
        unbound = [i for i, t in enumerate(terms) if isinstance(t, Var)]
        if len(unbound) > 1:
            raise EvaluationError(f"{name}/3 needs at least two bound arguments, got {atom}")
        try:
            if not unbound:
                a, b, c = (t.value for t in terms)
                if forward(a, b) == c:
                    yield subst
                return
            index = unbound[0]
            if index == 2:
                value = forward(terms[0].value, terms[1].value)
            elif index == 1:
                value = inverse(terms[2].value, terms[0].value)
            else:
                value = inverse(terms[2].value, terms[1].value)
        except TypeError as exc:
            raise EvaluationError(f"non-numeric arguments to {name}/3: {atom}") from exc
        yield subst.bind(terms[unbound[0]], Const(value))

    return evaluate


def _safe_div(a: object, b: object) -> object:
    if b == 0:
        raise EvaluationError("division by zero while inverting times/3")
    return a / b  # type: ignore[operator]


def _eval_abs(atom: Atom, subst: Substitution) -> Iterator[Substitution]:
    source = subst.apply_term(atom.args[0])
    target = subst.apply_term(atom.args[1])
    if isinstance(source, Var):
        raise EvaluationError(f"abs/2 needs a bound first argument, got {atom}")
    value = abs(source.value)  # type: ignore[arg-type]
    if isinstance(target, Var):
        yield subst.bind(target, Const(value))
    elif target.value == value:
        yield subst

