"""The inference strategy controller (Section 4.1) — interpretive suites.

Implements "the well-known depth-first with chronological backtracking
strategy of Prolog" over the shaped problem graph, with one BrAID-specific
twist: database access happens through the **runs** the view specifier
recorded — each run is emitted as one CAQL query (an instance of its view
specification), so the CMS sees exactly the query stream the advice's path
expression predicted.

With ``max_conjuncts = 1`` every run is a single literal and the controller
behaves as a fully interpretive, tuple-at-a-time engine; with unlimited
runs it performs conjunction compilation — two points on the I-C range
realized by one function suite with different parameters (the FDE-style
tailoring the paper describes).

Solutions are produced one at a time (single-solution strategy): pulling
the next solution drives backtracking, and CAQL result streams are
consumed tuple-at-a-time, so lazy CMS results only materialize what the
consumer actually requests.
"""

from __future__ import annotations

from typing import Iterator

from repro.common.errors import EvaluationError, InferenceError
from repro.common.metrics import IE_INFERENCE_STEPS
from repro.logic.kb import KnowledgeBase
from repro.logic.terms import Atom, Const, Substitution, Var
from repro.caql.ast import ConjunctiveQuery
from repro.core.cms import CacheManagementSystem
from repro.ie.problem_graph import (
    BUILTIN,
    DATABASE,
    RECURSIVE_REF,
    UNKNOWN,
    AndNode,
    OrNode,
)
from repro.ie.template import GraphTemplate, GraphTemplates
from repro.ie.view_specifier import SpecifierConfig, SpecifierResult


#: Deepest OR-node recursion inference (and answer justification) may
#: reach before it reports unbounded recursion.
MAX_DEPTH = 64


class DepthFirstController:
    """Depth-first, chronological-backtracking inference over a graph."""

    def __init__(
        self,
        kb: KnowledgeBase,
        cms: CacheManagementSystem,
        views: SpecifierResult,
        config: SpecifierConfig,
        templates: GraphTemplates,
        use_statistics: bool = False,
    ):
        self.kb = kb
        self.cms = cms
        self.views = views
        self.config = config
        self.templates = templates
        self.clock = cms.clock
        self.profile = cms.profile
        self.metrics = cms.metrics
        self.use_statistics = use_statistics
        from repro.obs.tracer import Tracer

        self.tracer = getattr(cms, "tracer", None) or Tracer.disabled()

    # -- bookkeeping -------------------------------------------------------------
    def _step(self) -> None:
        self.metrics.incr(IE_INFERENCE_STEPS)
        self.clock.charge("local", self.profile.inference_step)
        self.tracer.event("ie.step")

    # -- entry point ----------------------------------------------------------------
    def solve(
        self, root: OrNode, goal: Atom, scope: Substitution
    ) -> Iterator[Substitution]:
        """All solutions of ``goal``, lazily, as substitutions over its
        variables: ``root`` is its graph, solved under ``scope`` (which
        binds a template's slots and variables to the goal's)."""
        goal_vars = goal.variables()
        for solution in self._solve_or(root, scope, depth=0):
            yield solution.restricted(goal_vars)

    # -- OR nodes ----------------------------------------------------------------------
    def _solve_or(self, node: OrNode, subst: Substitution, depth: int) -> Iterator[Substitution]:
        if depth > MAX_DEPTH:
            raise InferenceError(
                f"depth limit {MAX_DEPTH} exceeded at {node.goal} — "
                "recursive data may need the compiled strategy"
            )
        self._step()
        goal = subst.apply(node.goal)

        if node.kind == BUILTIN:
            yield from self._solve_builtin(goal, subst)
            return
        if node.kind == DATABASE:
            yield from self._solve_database_leaf(goal, subst)
            return
        if node.kind == UNKNOWN:
            return  # closed world: no solutions
        if node.kind == RECURSIVE_REF:
            yield from self._solve_recursive_ref(goal, subst, depth)
            return

        # USER node.
        if goal.negated:
            yield from self._negation_as_failure(
                lambda: self._solve_user(node, subst, depth), subst
            )
            return
        yield from self._solve_user(node, subst, depth)

    def _solve_user(self, node: OrNode, subst: Substitution, depth: int) -> Iterator[Substitution]:
        for alternative in node.alternatives:
            yield from self._solve_body(alternative, 0, subst, depth)

    def _solve_builtin(self, goal: Atom, subst: Substitution) -> Iterator[Substitution]:
        if goal.negated:
            def attempts():
                return self.kb.builtins.evaluate(goal.positive(), subst)

            yield from self._negation_as_failure(attempts, subst)
            return
        try:
            yield from self.kb.builtins.evaluate(goal, subst)
        except EvaluationError as exc:
            raise InferenceError(f"built-in failed for {goal}: {exc}") from exc

    @staticmethod
    def _negation_as_failure(attempts, subst: Substitution) -> Iterator[Substitution]:
        for _solution in attempts():
            return  # a solution exists: the negation fails
        yield subst

    # -- database access ---------------------------------------------------------------
    def _solve_database_leaf(self, goal: Atom, subst: Substitution) -> Iterator[Substitution]:
        """A stray database leaf (negated literal, or a root-level goal)."""
        positive = goal.positive()
        query = self._single_literal_query(positive)
        if goal.negated:
            stream = self.cms.query(query)
            if stream.next() is None:
                yield subst
            return
        yield from self._stream_bindings(query, subst)

    def _single_literal_query(self, goal: Atom) -> ConjunctiveQuery:
        name = self.views.root_view or f"adhoc_{goal.pred}"
        answers = tuple(dict.fromkeys(a for a in goal.args if isinstance(a, Var)))
        return ConjunctiveQuery(name, answers, (goal,))

    def _stream_bindings(
        self, query: ConjunctiveQuery, subst: Substitution
    ) -> Iterator[Substitution]:
        """Run a CAQL query, binding answer variables tuple-at-a-time."""
        stream = self.cms.query(query)
        while True:
            row = stream.next()
            if row is None:
                return
            extended = subst
            consistent = True
            for term, value in zip(query.answers, row):
                if isinstance(term, Var):
                    current = extended.resolve(term)
                    if isinstance(current, Const):
                        if current.value != value:
                            consistent = False
                            break
                    else:
                        extended = extended.bind(term, Const(value))
            if consistent:
                yield extended

    # -- AND nodes with runs ---------------------------------------------------------------
    def _solve_body(
        self, node: AndNode, index: int, subst: Substitution, depth: int
    ) -> Iterator[Substitution]:
        if index >= len(node.body):
            yield subst
            return
        run = next((r for r in node.runs if r[0] == index), None)
        if run is not None:
            start, end, key, answers = run
            name = self.views.run_index[key]
            instantiated = self._instantiate_run(name, answers, node, start, end, subst)
            for extended in self._stream_bindings(instantiated, subst):
                yield from self._solve_body(node, end, extended, depth)
            return
        child = node.body[index]
        for extended in self._solve_or(child, subst, depth + 1):
            yield from self._solve_body(node, index + 1, extended, depth)

    def _instantiate_run(
        self,
        name: str,
        answers: tuple,
        node: AndNode,
        start: int,
        end: int,
        subst: Substitution,
    ) -> ConjunctiveQuery:
        """The IE-query: the view instantiated with current bindings.

        ``answers`` are this graph instance's minimal-argument-set terms
        (the stored view definition may belong to a different instance of
        the same rule, so its variable names cannot be used here).
        """
        literals = tuple(subst.apply(node.body[i].goal) for i in range(start, end))
        bound_answers = tuple(
            subst.apply_term(t) if isinstance(t, Var) else t for t in answers
        )
        return ConjunctiveQuery(name, bound_answers, literals)

    # -- recursion ------------------------------------------------------------------------
    def _solve_recursive_ref(
        self, goal: Atom, subst: Substitution, depth: int
    ) -> Iterator[Substitution]:
        """Re-expand a recursive reference on demand.

        The subgraph's views are named in the session's view registry, so
        re-expanded runs reuse the view names the advice already declared
        (the path expression marked this region unbounded).  A shape's
        template is solved in a scope of its own — nested activations of
        one template share its variables — while a graph built for this
        goal alone is solved in the caller's.
        """
        positive = goal.positive()
        template = self.templates.graph_for(
            positive,
            self.config,
            self.cms.statistics_of if self.use_statistics else None,
        )
        scope = template.bind(positive)
        template.register(self.views, scope)
        if template.memoised:
            def attempts():
                return self._solve_template(template, positive, scope, subst, depth + 1)
        else:
            def attempts():
                return self._solve_or(template.root, subst, depth + 1)
        if goal.negated:
            yield from self._negation_as_failure(attempts, subst)
            return
        yield from attempts()

    def _solve_template(
        self,
        template: GraphTemplate,
        goal: Atom,
        scope: Substitution,
        subst: Substitution,
        depth: int,
    ) -> Iterator[Substitution]:
        """Solve ``goal``'s template under its own ``scope``; each solution
        reaches the caller's ``subst`` through the goal's variables only."""
        goal_vars = tuple(dict.fromkeys(a for a in goal.args if isinstance(a, Var)))
        for solution in self._solve_or(template.root, scope, depth):
            yield template.carry(solution, goal_vars, subst)
