"""The IE's knowledge base: rules, local facts, SOAs, and predicate classes.

Section 3 of the paper: "The IE controls the knowledge base".  The knowledge
base distinguishes three classes of predicate, which drive problem-graph
extraction (Section 4.1):

* **database relations** — leaves resolved by CAQL queries to the CMS;
* **built-in relations** — evaluable predicates (comparisons, arithmetic);
* **user-defined relations** — defined by rules (and possibly local facts),
  expanded during problem-graph construction.

The knowledge base also maintains the *predicate connection graph*: for each
user-defined predicate, the clauses defining it, and from each clause the
predicates its body references.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator

from repro.common.errors import KnowledgeBaseError
from repro.logic.builtins import BuiltinRegistry
from repro.logic.parser import Clause, parse_program
from repro.logic.soa import (
    FunctionalDependency,
    MutualExclusion,
    RecursiveStructure,
    SOARegistry,
)
from repro.logic.terms import Atom

#: Signature type: (predicate name, arity).
Signature = tuple[str, int]


@dataclass
class KnowledgeBase:
    """Rules, local facts, second-order assertions, and predicate classes."""

    #: This knowledge base's own registry: a predicate registered here is
    #: a built-in of this knowledge base only.
    builtins: BuiltinRegistry = field(default_factory=BuiltinRegistry, init=False)
    soas: SOARegistry = field(default_factory=SOARegistry)
    _clauses: dict[Signature, list[Clause]] = field(default_factory=lambda: defaultdict(list))
    _database: set[Signature] = field(default_factory=set)
    _clause_order: list[Clause] = field(default_factory=list)

    # -- declarations ----------------------------------------------------------
    def declare_database(self, pred: str, arity: int) -> None:
        """Declare ``pred/arity`` as a relation stored in the remote DBMS."""
        signature = (pred, arity)
        if signature in self._clauses and self._clauses[signature]:
            raise KnowledgeBaseError(
                f"{pred}/{arity} already has rules; it cannot also be a database relation"
            )
        self._database.add(signature)

    def add_clause(self, clause: Clause) -> None:
        """Add a rule or local fact for a user-defined predicate."""
        signature = clause.head.signature
        if signature in self._database:
            raise KnowledgeBaseError(
                f"{signature[0]}/{signature[1]} is a database relation; rules may not define it"
            )
        if self.builtins.is_builtin(clause.head):
            raise KnowledgeBaseError(
                f"{signature[0]}/{signature[1]} is a built-in; rules may not define it"
            )
        self._clauses[signature].append(clause)
        self._clause_order.append(clause)

    def add_rules(self, text: str) -> list[Clause]:
        """Parse and add every clause in ``text``; returns the clauses."""
        clauses = parse_program(text)
        for clause in clauses:
            self.add_clause(clause)
        return clauses

    def add_soa(self, soa: MutualExclusion | FunctionalDependency | RecursiveStructure) -> None:
        """Register a second-order assertion."""
        self.soas.add(soa)

    @property
    def epoch(self) -> tuple:
        """Changes whenever a clause, a database declaration, an SOA or a
        built-in is added: what the IE compiled before is stale after.

        Every registry only grows, so their sizes (and the built-ins'
        signature set) are the epoch; a re-registered built-in of the
        same signature does not move it.
        """
        soas = self.soas
        return (
            len(self._clause_order),
            len(self._database),
            len(soas.mutual_exclusions),
            len(soas.functional_dependencies),
            len(soas.recursive_structures),
            self.builtins.signatures,
        )

    # -- classification ----------------------------------------------------------
    def is_database(self, atom: Atom) -> bool:
        """True when the atom names a remote base relation."""
        return atom.signature in self._database

    def is_builtin(self, atom: Atom) -> bool:
        """True when an evaluable built-in matches the atom."""
        return self.builtins.is_builtin(atom)

    def is_user_defined(self, atom: Atom) -> bool:
        """True when rules or local facts define the atom."""
        return atom.signature in self._clauses

    def classify(self, atom: Atom) -> str:
        """One of ``"database"``, ``"builtin"``, ``"user"``, ``"unknown"``."""
        if self.is_database(atom):
            return "database"
        if self.is_builtin(atom):
            return "builtin"
        if self.is_user_defined(atom):
            return "user"
        return "unknown"

    # -- access --------------------------------------------------------------------
    def clauses_for(self, atom: Atom) -> list[Clause]:
        """The clauses whose head signature matches ``atom``."""
        return list(self._clauses.get(atom.signature, ()))

    def database_signatures(self) -> set[Signature]:
        """All declared database (pred, arity) pairs."""
        return set(self._database)

    def user_signatures(self) -> set[Signature]:
        """All rule-defined (pred, arity) pairs."""
        return set(self._clauses)

    def all_clauses(self) -> Iterator[Clause]:
        """Every clause, grouped by predicate, in insertion order."""
        for group in self._clauses.values():
            yield from group

    def rule_id(self, clause: Clause) -> str:
        """A stable identifier (``R1``, ``R2``, ...) by registration order.

        Rule identifiers label view specifications "for human consumption"
        (Section 4.2.1) and tie problem-graph AND nodes back to the KB.
        """
        try:
            return f"R{self._clause_order.index(clause) + 1}"
        except ValueError:
            raise KnowledgeBaseError(f"clause not in this knowledge base: {clause}") from None

    # -- predicate connection graph ---------------------------------------------
    def connection_graph(self) -> dict[Signature, set[Signature]]:
        """Edges from each user-defined predicate to the predicates it calls."""
        graph: dict[Signature, set[Signature]] = {}
        for signature, clauses in self._clauses.items():
            edges: set[Signature] = set()
            for clause in clauses:
                for literal in clause.body:
                    edges.add(literal.positive().signature)
            graph[signature] = edges
        return graph

    def reachable_signatures(self, root: Signature) -> set[Signature]:
        """All predicate signatures reachable from ``root`` in the connection graph.

        Includes database and built-in leaves; this is the predicate-level
        footprint of a problem graph and the basis for the simplest form of
        advice (the unordered list of relevant base relations, Section 4.2).
        """
        graph = self.connection_graph()
        seen: set[Signature] = set()
        frontier = [root]
        while frontier:
            signature = frontier.pop()
            if signature in seen:
                continue
            seen.add(signature)
            for edge in graph.get(signature, ()):
                if edge not in seen:
                    frontier.append(edge)
        return seen

    def relevant_database_relations(self, query: Atom) -> set[Signature]:
        """Database relations reachable from an AI query — the simplest advice."""
        return {
            signature
            for signature in self.reachable_signatures(query.signature)
            if signature in self._database
        }

    def is_recursive(self, signature: Signature) -> bool:
        """True when ``signature`` can (transitively) call itself."""
        graph = self.connection_graph()
        seen: set[Signature] = set()
        frontier = list(graph.get(signature, ()))
        while frontier:
            current = frontier.pop()
            if current == signature:
                return True
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(graph.get(current, ()))
        return False

    def validate(self) -> list[str]:
        """Sanity-check the knowledge base; returns a list of problems.

        Flags body literals that are neither database, built-in, nor
        user-defined — usually a typo in a rule.
        """
        problems = []
        for clause in self.all_clauses():
            for literal in clause.body:
                positive = literal.positive()
                if self.classify(positive) == "unknown":
                    problems.append(
                        f"clause {clause} references undefined predicate "
                        f"{positive.pred}/{positive.arity}"
                    )
        return problems
