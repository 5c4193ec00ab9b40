"""Path expressions — the second kind of advice (Section 4.2.2).

A path expression is "a prediction of relation accessing order, repetition,
and binding patterns" — an abstraction of the CAQL query sequence the IE
will emit during a session.  The grammar:

* a **query pattern** ``d_i(T1, ..., Tn)`` — an abstraction of one CAQL
  query against view ``d_i`` (arguments are annotated variables or
  constants, carried for display and binding prediction);
* a **sequence** ``( e1, e2, ... )^<lo,hi>`` — a precise ordering, repeated
  between ``lo`` and ``hi`` times, where ``hi`` may be a *cardinality
  reference* like ``|Y|`` (resolved only at run time, treated as unbounded
  for tracking);
* an **alternation** ``[ e1, e2, ... ]^s`` — an unordered set of which at
  most ``s`` members appear per activation (``s`` omitted = any number;
  ``s = 1`` means the members are mutually exclusive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from repro.common.errors import AdviceError


@dataclass(frozen=True)
class Cardinality:
    """A symbolic repetition bound like ``|Y|`` (unknown until run time)."""

    variable: str

    def __str__(self) -> str:
        return f"|{self.variable}|"


#: An upper repetition bound: a number, a symbolic cardinality, or None (∞).
UpperBound = Union[int, Cardinality, None]


@dataclass(frozen=True)
class QueryPattern:
    """An abstraction of a single CAQL query: view name + argument sketch.

    ``args`` are display strings like ``"X^"``, ``"Y?"``, or a constant —
    the tracker matches on ``view`` only, but binding sketches feed the
    prefetch planner (a ``?`` argument means the concrete query will carry
    a constant the CMS cannot guess, so prefetching must generalize it).
    """

    view: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.view
        return f"{self.view}({', '.join(self.args)})"


@dataclass(frozen=True)
class Sequence:
    """An ordered grouping with a repetition count ``<lo, hi>``."""

    elements: tuple["PathExpr", ...]
    lower: int = 1
    upper: UpperBound = 1

    def __post_init__(self) -> None:
        if not self.elements:
            raise AdviceError("a sequence needs at least one element")
        if self.lower < 0:
            raise AdviceError(f"sequence lower bound must be >= 0, got {self.lower}")
        if isinstance(self.upper, int) and self.upper < max(self.lower, 1):
            raise AdviceError(
                f"sequence upper bound {self.upper} below lower bound {self.lower}"
            )

    def __str__(self) -> str:
        inner = ", ".join(str(e) for e in self.elements)
        upper = "*" if self.upper is None else str(self.upper)
        return f"({inner})^<{self.lower},{upper}>"


@dataclass(frozen=True)
class Alternation:
    """An unordered grouping with an optional selection term."""

    members: tuple["PathExpr", ...]
    selection: int | None = None

    def __post_init__(self) -> None:
        if not self.members:
            raise AdviceError("an alternation needs at least one member")
        if self.selection is not None and not 1 <= self.selection <= len(self.members):
            raise AdviceError(
                f"selection term {self.selection} out of range for "
                f"{len(self.members)} members"
            )

    def __str__(self) -> str:
        inner = ", ".join(str(m) for m in self.members)
        suffix = f"^{self.selection}" if self.selection is not None else ""
        return f"[{inner}]{suffix}"


PathExpr = Union[QueryPattern, Sequence, Alternation]


def iter_patterns(expr: PathExpr) -> Iterator[QueryPattern]:
    """Every query pattern in the expression, left to right."""
    if isinstance(expr, QueryPattern):
        yield expr
    elif isinstance(expr, Sequence):
        for element in expr.elements:
            yield from iter_patterns(element)
    elif isinstance(expr, Alternation):
        for member in expr.members:
            yield from iter_patterns(member)
    else:
        raise AdviceError(f"not a path expression: {expr!r}")


def view_names(expr: PathExpr) -> set[str]:
    """The set of view names mentioned anywhere in the expression."""
    return {p.view for p in iter_patterns(expr)}


def sequence_companions(expr: PathExpr, view: str) -> set[str]:
    """Views grouped in a sequence with ``view``.

    Section 5.3.1: "The sequence grouping in a path expression indicates
    that all items in that group are likely to be evaluated when the first
    item is evaluated" — these are the prefetch candidates once ``view``
    is observed.  The group used is the *smallest* enclosing sequence of
    each occurrence of ``view``; names reachable from that group only
    through an alternation are excluded (they may never appear).
    """
    companions: set[str] = set()

    def promised_names(node: PathExpr) -> set[str]:
        """Names promised when ``node``'s group iterates (stop at
        alternations: their members are optional)."""
        if isinstance(node, QueryPattern):
            return {node.view}
        if isinstance(node, Sequence):
            out: set[str] = set()
            for element in node.elements:
                out |= promised_names(element)
            return out
        return set()  # alternation: nothing promised

    def contains_directly(node: PathExpr) -> bool:
        """Does ``node`` contain the view with no intervening Sequence?"""
        if isinstance(node, QueryPattern):
            return node.view == view
        if isinstance(node, Alternation):
            return any(contains_directly(member) for member in node.members)
        return False  # a nested Sequence is a closer ancestor

    def walk(node: PathExpr) -> bool:
        if isinstance(node, QueryPattern):
            return node.view == view
        if isinstance(node, Alternation):
            return any(walk(member) for member in node.members)
        contains = False
        for element in node.elements:
            if contains_directly(element):
                # This sequence is the nearest sequence ancestor of (at
                # least one occurrence of) the view: pool its promises.
                for other in node.elements:
                    companions.update(promised_names(other))
                contains = True
            elif walk(element):
                contains = True  # a deeper sequence already pooled
        return contains

    walk(expr)
    companions.discard(view)
    return companions
