"""CAQL — the Cache Query Language — abstract syntax.

Section 5 of the paper: "A CAQL query is a well formed formula in
quantified, first-order predicate calculus ... CAQL supports arithmetic
operators, logical connectives, special second-order predicates (BAGOF,
SETOF, AGG, etc.)".

The conjunctive (PSJ) core carries all of the caching and subsumption
machinery; the second-order forms wrap a conjunctive body:

* :class:`ConjunctiveQuery` — ``name(answers) :- literal, ...`` where body
  literals reference database relations, cached views, comparisons, and
  evaluable functions;
* :class:`AggregateQuery` — AGG over a conjunctive body (grouped);
* :class:`SetOfQuery` — SETOF/BAGOF: collect answers as a relation (SETOF
  is the plain set-semantics result; BAGOF additionally reports
  multiplicities).

These are exactly the operations the paper says the CMS supports but a
conventional remote DBMS of the era did not — so aggregate/setof bodies are
evaluated by shipping their conjunctive core (cache + remote as usual) and
applying the second-order operator in the CMS.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import TranslationError
from repro.logic.terms import Atom, Substitution, Term, Var

#: Comparison predicates the PSJ core can absorb into conditions.
COMPARISON_PREDS = {"<", ">", "=<", ">=", "=", "\\="}


@dataclass(frozen=True)
class ConjunctiveQuery:
    """The conjunctive core: ``name(answers) :- literals``.

    ``answers`` may contain constants (a fully or partially instantiated
    query); every answer *variable* must occur in the body.
    """

    name: str
    answers: tuple[Term, ...]
    literals: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.answers, tuple):
            object.__setattr__(self, "answers", tuple(self.answers))
        if not isinstance(self.literals, tuple):
            object.__setattr__(self, "literals", tuple(self.literals))
        body_vars = self.body_variables()
        for term in self.answers:
            if isinstance(term, Var) and term not in body_vars:
                raise TranslationError(
                    f"answer variable {term} of {self.name} does not occur in the body"
                )

    # -- structure ------------------------------------------------------------
    def body_variables(self) -> set[Var]:
        """All variables occurring in the body."""
        out: set[Var] = set()
        for literal in self.literals:
            out |= literal.variables()
        return out

    @property
    def arity(self) -> int:
        """Number of answer positions."""
        return len(self.answers)

    # -- instantiation ----------------------------------------------------------
    def instantiate(self, bindings: Substitution) -> "ConjunctiveQuery":
        """Apply a substitution to head and body (an IE-query is an
        instance of a view specification with constant bindings,
        Section 5.3.1)."""
        answers = tuple(
            bindings.apply_term(t) if isinstance(t, Var) else t for t in self.answers
        )
        literals = tuple(bindings.apply(lit) for lit in self.literals)
        return ConjunctiveQuery(self.name, answers, literals)

    def __str__(self) -> str:
        head_args = ", ".join(str(a) for a in self.answers)
        body = ", ".join(str(l) for l in self.literals)
        return f"{self.name}({head_args}) :- {body}"


@dataclass(frozen=True)
class AggregateQuery:
    """AGG: group the body's answers and aggregate.

    ``group_by`` indexes into the base query's answer tuple; ``aggregations``
    are ``(function, answer_index, output_name)`` triples using the same
    functions as :func:`repro.relational.operators.aggregate`.
    """

    base: ConjunctiveQuery
    group_by: tuple[int, ...]
    aggregations: tuple[tuple[str, int, str], ...]

    def __post_init__(self) -> None:
        arity = self.base.arity
        for index in self.group_by:
            if not 0 <= index < arity:
                raise TranslationError(f"group_by index {index} out of range")
        for _fn, index, _out in self.aggregations:
            if not 0 <= index < arity:
                raise TranslationError(f"aggregation index {index} out of range")
        if not self.aggregations:
            raise TranslationError("AGG needs at least one aggregation")

    def __str__(self) -> str:
        aggs = ", ".join(f"{fn}(#{i}) as {out}" for fn, i, out in self.aggregations)
        return f"AGG[{self.base.name}; group={self.group_by}; {aggs}]"


@dataclass(frozen=True)
class SetOfQuery:
    """SETOF/BAGOF: the body's full answer relation, optionally with counts."""

    base: ConjunctiveQuery
    with_counts: bool = False  # True = BAGOF semantics (answer multiplicity)

    def __str__(self) -> str:
        kind = "BAGOF" if self.with_counts else "SETOF"
        return f"{kind}[{self.base.name}]"


@dataclass(frozen=True)
class QuantifiedQuery:
    """The CAQL quantifiers of Section 5: EXISTS, ANY, THE, and ALL.

    * ``EXISTS`` — a boolean relation: one ``(True,)`` row iff the base
      has any answer;
    * ``ANY`` — an arbitrary single answer of the base (first in the
      deterministic evaluation order), evaluated lazily when possible;
    * ``THE`` — the base's unique answer; an error if the base has zero or
      more than one;
    * ``ALL`` — universal quantification as set containment: holds iff
      every answer of ``base`` is also an answer of ``within`` (which must
      have the same arity).  This is the range-restricted reading —
      quantification over an explicitly given domain.
    """

    quantifier: str  # "exists" | "any" | "the" | "all"
    base: ConjunctiveQuery
    within: ConjunctiveQuery | None = None

    def __post_init__(self) -> None:
        if self.quantifier not in ("exists", "any", "the", "all"):
            raise TranslationError(f"unknown quantifier {self.quantifier!r}")
        if self.quantifier == "all":
            if self.within is None:
                raise TranslationError("ALL needs a containing query (within=...)")
            if self.within.arity != self.base.arity:
                raise TranslationError(
                    f"ALL: arity mismatch ({self.base.arity} vs {self.within.arity})"
                )
        elif self.within is not None:
            raise TranslationError(f"{self.quantifier.upper()} takes no within-query")

    def __str__(self) -> str:
        if self.quantifier == "all":
            return f"ALL[{self.base.name} ⊆ {self.within.name}]"
        return f"{self.quantifier.upper()}[{self.base.name}]"


#: Any CAQL query.
CAQLQuery = ConjunctiveQuery | AggregateQuery | SetOfQuery | QuantifiedQuery
