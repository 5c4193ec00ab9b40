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
from repro.logic.terms import Atom

#: OR-node kinds.
DATABASE = "database"
BUILTIN = "builtin"
USER = "user"
RECURSIVE_REF = "recursive-ref"
UNKNOWN = "unknown"

_node_counter = itertools.count(1)


@dataclass
class AndNode:
    """A rule application: head unified with the parent goal."""

    rule: Clause
    rule_id: str
    head: Atom
    body: list["OrNode"] = field(default_factory=list)
    #: Filled by the view specifier: (start, end, view_name) runs over body
    #: positions that will be emitted as single CAQL queries.
    runs: list[tuple[int, int, str]] = field(default_factory=list)
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
