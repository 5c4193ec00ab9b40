"""Second-order assertions (SOAs).

Section 4 of the paper: "we include in our knowledge base limited kinds of
second-order assertions (SOA's), in particular, mutual exclusion and
functional dependency SOA's useful for problem graph culling and constraint,
and SOA's that define certain relations as recursive structures of other
relations."

Three SOA kinds are implemented:

* :class:`MutualExclusion` — at most one of a set of conditions can hold,
  letting the problem-graph shaper cull OR branches and letting the
  path-expression creator emit alternations with selection term 1;
* :class:`FunctionalDependency` — attribute positions of a relation
  determine others, informing producer/consumer orderings; and
* :class:`RecursiveStructure` — declares a relation as the closure of a base
  relation (e.g. ``ancestor`` = transitive closure of ``parent``), which the
  compiled strategies can map to a fixed-point operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import KnowledgeBaseError
from repro.logic.terms import Atom, Substitution
from repro.logic.unify import unify


@dataclass(frozen=True)
class MutualExclusion:
    """At most ``max_true`` of the ``alternatives`` can hold simultaneously.

    Each alternative is an atom pattern.  Two goals matching *different*
    alternatives under a common substitution are mutually exclusive, so the
    shaper may cull one branch once the other is known to hold, and the
    path-expression creator may mark the group with selection term
    ``max_true``.
    """

    alternatives: tuple[Atom, ...]
    max_true: int = 1

    def __post_init__(self) -> None:
        if len(self.alternatives) < 2:
            raise KnowledgeBaseError("mutual exclusion needs at least two alternatives")
        if not 1 <= self.max_true < len(self.alternatives):
            raise KnowledgeBaseError(
                f"max_true must be in [1, {len(self.alternatives) - 1}], got {self.max_true}"
            )

    def covers(self, goals: list[Atom]) -> bool:
        """True when every goal matches a distinct alternative consistently.

        A consistent common substitution across the matches is required:
        ``me(p(X), q(X))`` excludes ``p(a)`` with ``q(a)`` but says nothing
        about ``p(a)`` with ``q(b)``.
        """
        if len(goals) < 2 or len(goals) > len(self.alternatives):
            return False
        return self._cover(goals, list(self.alternatives), Substitution())

    def _cover(self, goals: list[Atom], alternatives: list[Atom], subst: Substitution) -> bool:
        if not goals:
            return True
        goal, *rest = goals
        for i, alt in enumerate(alternatives):
            extended = unify(alt, goal, subst)
            if extended is not None:
                remaining = alternatives[:i] + alternatives[i + 1:]
                if self._cover(rest, remaining, extended):
                    return True
        return False

    def __str__(self) -> str:
        inner = "; ".join(str(a) for a in self.alternatives)
        return f"mutex<{self.max_true}>({inner})"


@dataclass(frozen=True)
class FunctionalDependency:
    """``determinants -> dependents`` over argument positions of ``pred``.

    Positions are zero-based.  Example: ``FunctionalDependency("employee",
    (0,), (1, 2))`` says the first argument of ``employee/3`` determines the
    other two — so once it is bound, at most one tuple matches, which the
    shaper uses both for conjunct ordering and for cardinality estimates.
    """

    pred: str
    arity: int
    determinants: tuple[int, ...]
    dependents: tuple[int, ...]

    def __post_init__(self) -> None:
        positions = set(self.determinants) | set(self.dependents)
        if not positions or max(positions) >= self.arity or min(positions) < 0:
            raise KnowledgeBaseError(
                f"FD positions out of range for {self.pred}/{self.arity}: {sorted(positions)}"
            )
        if set(self.determinants) & set(self.dependents):
            raise KnowledgeBaseError("FD determinant and dependent positions overlap")

    def __str__(self) -> str:
        det = ",".join(str(i) for i in self.determinants)
        dep = ",".join(str(i) for i in self.dependents)
        return f"fd({self.pred}/{self.arity}: {det} -> {dep})"


@dataclass(frozen=True)
class RecursiveStructure:
    """Declares ``closure_pred`` as a recursive structure over ``base_pred``.

    ``kind`` names the closure operator; only ``"transitive"`` is built in
    (``closure = base+``), which covers the genealogy-style rules in the
    paper's examples.  Compiled inference strategies translate a goal on
    ``closure_pred`` into a fixed-point CAQL request instead of unfolding
    the recursion rule by rule.
    """

    closure_pred: str
    base_pred: str
    arity: int = 2
    kind: str = "transitive"

    def __post_init__(self) -> None:
        if self.kind != "transitive":
            raise KnowledgeBaseError(f"unsupported recursive-structure kind: {self.kind!r}")
        if self.arity != 2:
            raise KnowledgeBaseError("transitive closure is only defined for binary relations")

    def __str__(self) -> str:
        return f"recursive({self.closure_pred} = {self.kind}({self.base_pred}))"


@dataclass
class SOARegistry:
    """All second-order assertions of a knowledge base, indexed for lookup."""

    mutual_exclusions: list[MutualExclusion] = field(default_factory=list)
    functional_dependencies: list[FunctionalDependency] = field(default_factory=list)
    recursive_structures: list[RecursiveStructure] = field(default_factory=list)

    def add(self, soa: MutualExclusion | FunctionalDependency | RecursiveStructure) -> None:
        """Register an assertion, dispatching on its type."""
        if isinstance(soa, MutualExclusion):
            self.mutual_exclusions.append(soa)
        elif isinstance(soa, FunctionalDependency):
            self.functional_dependencies.append(soa)
        elif isinstance(soa, RecursiveStructure):
            self.recursive_structures.append(soa)
        else:
            raise KnowledgeBaseError(f"unknown SOA type: {type(soa).__name__}")

    def fds_for(self, pred: str, arity: int) -> list[FunctionalDependency]:
        """Functional dependencies declared for ``pred/arity``."""
        return [fd for fd in self.functional_dependencies if fd.pred == pred and fd.arity == arity]

    def recursive_for(self, pred: str) -> RecursiveStructure | None:
        """The recursive-structure SOA whose closure is ``pred``, or None."""
        for rs in self.recursive_structures:
            if rs.closure_pred == pred:
                return rs
        return None

    def exclusive_pair(self, a: Atom, b: Atom) -> bool:
        """True when some mutual-exclusion SOA covers both goals."""
        return any(me.covers([a, b]) for me in self.mutual_exclusions)
