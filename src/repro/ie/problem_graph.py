"""Problem graphs: the AND/OR graphs the IE reasons over (Section 4.1).

"A problem graph is an and/or graph consisting of alternating levels of AND
nodes and OR nodes.  An AND node represents a rule ... Each antecedent is
represented by an OR node.  An OR node contains a single relation
occurrence (or subgoal) and its successors form a subgraph that represents
the different clauses (rules) that define that relation."

Leaves are database relations or built-in relations.  Recursive relation
occurrences appear once per occurrence ("only a single instance of the
recursive definition will appear in the subgraph for each recursive
relation occurrence"): when expansion would revisit a predicate already on
the current path, the OR node is marked ``recursive_ref`` and left
unexpanded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.logic.parser import Clause
from repro.logic.terms import Atom, Const

#: OR-node kinds.
DATABASE = "database"
BUILTIN = "builtin"
USER = "user"
RECURSIVE_REF = "recursive-ref"
UNKNOWN = "unknown"

_node_counter = itertools.count(1)


class PlaceholderRead(Exception):
    """A graph build read the value of a placeholder (see :class:`Placeholder`)."""


class Placeholder:
    """The value of a bound argument of a template goal: a constant whose
    value nobody knows yet.

    Shaping and specifying treat ``Const(Placeholder(i))`` as the constant
    it stands for — it binds, it counts as bound, it is never a variable.
    What they may not do is compare it with anything but itself: the answer
    would depend on a value the template does not have.  Such a read raises
    :class:`PlaceholderRead`, and the goal's shape is then solved one graph
    per ask (:mod:`repro.ie.template`).  Comparing a placeholder with itself
    never gets here: ``==`` on tuples and dataclasses checks identity first.
    """

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        raise PlaceholderRead(f"{self!r} compared with {other!r}")

    def __lt__(self, other: object) -> bool:
        raise PlaceholderRead(f"{self!r} ordered against {other!r}")

    __le__ = __gt__ = __ge__ = __lt__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"?{self.index}"


def is_placeholder(term: object) -> bool:
    """True when ``term`` is a template goal's placeholder constant."""
    return isinstance(term, Const) and type(term.value) is Placeholder


@dataclass
class AndNode:
    """A rule application: head unified with the parent goal."""

    rule: Clause
    rule_id: str
    head: Atom
    body: list["OrNode"] = field(default_factory=list)
    #: Filled by the view specifier: ``(start, end, view, answers)`` runs
    #: over body positions that will be emitted as single CAQL queries.
    #: ``view`` is the view's name; in a graph the controller solves it is
    #: the run key, which the session's ``SpecifierResult`` resolves.
    runs: list[tuple] = field(default_factory=list)
    node_id: int = field(default_factory=lambda: next(_node_counter))

    def __str__(self) -> str:
        return f"AND[{self.rule_id}] {self.head}"


@dataclass
class OrNode:
    """A subgoal and the alternative rules defining it."""

    goal: Atom
    kind: str
    alternatives: list[AndNode] = field(default_factory=list)
    node_id: int = field(default_factory=lambda: next(_node_counter))

    def __str__(self) -> str:
        return f"OR[{self.kind}] {self.goal}"
