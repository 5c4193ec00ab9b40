"""Answer justification: proof trees for solved AI queries.

Section 4.2.1: rule identifiers on view specifications "will be of use
within the system when the problems of debugging and answer justification
are addressed".  This module addresses them: given a (ground or
instantiated) goal, the :class:`Explainer` reconstructs a proof tree —
which rules fired (by their ``R``-identifiers), which database facts were
fetched (through the CMS, so the cache pays most of the cost), which
built-ins held, and which negations failed.

Justification is a separate pass over the knowledge base rather than a
side product of inference: solutions are produced first (by any strategy),
and each one can then be explained on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.common.errors import InferenceError
from repro.logic.kb import KnowledgeBase
from repro.logic.terms import Atom, Const, Substitution, Var, rename_apart
from repro.logic.unify import unify
from repro.caql.ast import ConjunctiveQuery
from repro.ie.controller import MAX_DEPTH

#: Proof node kinds.
RULE = "rule"
DATABASE_FACT = "database"
BUILTIN_FACT = "builtin"
NEGATION = "naf"


@dataclass(frozen=True)
class Proof:
    """One step of a justification: a goal and how it was established."""

    goal: Atom
    kind: str
    rule_id: str | None = None
    children: tuple["Proof", ...] = ()

    def render(self, indent: int = 0) -> str:
        """A human-readable proof tree."""
        pad = "  " * indent
        if self.kind == RULE:
            line = f"{pad}{self.goal}   [{self.rule_id}]"
        elif self.kind == DATABASE_FACT:
            line = f"{pad}{self.goal}   [database]"
        elif self.kind == BUILTIN_FACT:
            line = f"{pad}{self.goal}   [built-in]"
        else:
            line = f"{pad}{self.goal}   [no counterexample]"
        return "\n".join([line] + [child.render(indent + 1) for child in self.children])

    def rules_used(self) -> list[str]:
        """Every rule identifier in the proof, preorder (with repeats)."""
        out = []
        if self.kind == RULE and self.rule_id is not None:
            out.append(self.rule_id)
        for child in self.children:
            out.extend(child.rules_used())
        return out

    def facts_used(self) -> list[Atom]:
        """Every database fact the proof rests on."""
        out = []
        if self.kind == DATABASE_FACT:
            out.append(self.goal)
        for child in self.children:
            out.extend(child.facts_used())
        return out

    def __str__(self) -> str:
        return self.render()


class Explainer:
    """Builds proof trees by SLD search over the knowledge base.

    Database literals are checked through the CMS (anything recently
    queried is a cache hit); built-ins run locally; negations are
    justified by exhaustive failure.
    """

    def __init__(self, kb: KnowledgeBase, cms):
        self.kb = kb
        self.cms = cms

    # -- public API -----------------------------------------------------------------
    def explain(self, goal: Atom, bindings: Substitution | None = None) -> Proof | None:
        """The first proof of ``goal`` under ``bindings``, or None."""
        subst = bindings if bindings is not None else Substitution()
        for _final, proof in self._prove(subst.apply(goal), subst, 0):
            return proof
        return None

    def explain_solution(self, goal: Atom, solution: dict[str, object]) -> Proof | None:
        """Justify one solution (as returned by :class:`Solutions`)."""
        bindings = Substitution(
            {
                var: Const(value)
                for var in goal.variables()
                if (value := solution.get(var.name)) is not None
            }
        )
        return self.explain(goal, bindings)

    # -- search ----------------------------------------------------------------------
    def _prove(
        self, goal: Atom, subst: Substitution, depth: int
    ) -> Iterator[tuple[Substitution, Proof]]:
        if depth > MAX_DEPTH:
            raise InferenceError(f"explanation depth limit exceeded at {goal}")
        goal = subst.apply(goal)

        if goal.negated:
            positive = goal.positive()
            for _s, _p in self._prove(positive, subst, depth + 1):
                return  # a proof of the positive goal defeats the negation
            yield subst, Proof(goal, NEGATION)
            return

        kind = self.kb.classify(goal)
        if kind == "database":
            yield from self._prove_database(goal, subst)
            return
        if kind == "builtin":
            for extended in self.kb.builtins.evaluate(goal, subst):
                yield extended, Proof(extended.apply(goal), BUILTIN_FACT)
            return
        if kind == "unknown":
            return

        for clause in self.kb.clauses_for(goal):
            renamed, _ = rename_apart([clause.head, *clause.body])
            head, *body = renamed
            unifier = unify(head, goal, subst)
            if unifier is None:
                continue
            rule_id = self.kb.rule_id(clause)
            for final, child_proofs in self._prove_body(body, unifier, depth + 1):
                yield final, Proof(
                    final.apply(goal), RULE, rule_id=rule_id, children=tuple(child_proofs)
                )

    def _prove_body(
        self, body: list[Atom], subst: Substitution, depth: int
    ) -> Iterator[tuple[Substitution, list[Proof]]]:
        if not body:
            yield subst, []
            return
        head, *rest = body
        for extended, proof in self._prove(head, subst, depth):
            for final, proofs in self._prove_body(rest, extended, depth):
                yield final, [proof] + proofs

    def _prove_database(
        self, goal: Atom, subst: Substitution
    ) -> Iterator[tuple[Substitution, Proof]]:
        answers = tuple(dict.fromkeys(a for a in goal.args if isinstance(a, Var)))
        query = ConjunctiveQuery(f"explain_{goal.pred}", answers, (goal,))
        stream = self.cms.query(query)
        while True:
            row = stream.next()
            if row is None:
                return
            extended = subst
            for term, value in zip(answers, row):
                extended = extended.bind(term, Const(value))
            yield extended, Proof(extended.apply(goal), DATABASE_FACT)
