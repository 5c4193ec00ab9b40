"""The Inference Engine facade (Section 4, Figure 4).

Wires the six IE modules together for each AI query:

1. the **query translator** (a thin parse step — AI queries are atomic
   formulas);
2. the **problem graph extractor**;
3. the **problem graph shaper** (constant pushing, SOA culling, ordering);
4. the **view specifier** and **path expression creator** (advice);
5. the **inference strategy controller** (or the compiled evaluator),
   which emits CAQL queries to the CMS and produces solutions.

A session per AI query: advice first, then the query stream — exactly the
IE–CMS interaction mode of Section 3.
"""

from __future__ import annotations

from typing import Iterator

from repro.common.errors import InferenceError
from repro.logic.kb import KnowledgeBase
from repro.logic.parser import parse_atom
from repro.logic.terms import Atom, Substitution, Var
from repro.core.cms import CacheManagementSystem
from repro.ie.controller import DepthFirstController
from repro.ie.problem_graph import OrNode
from repro.ie.strategies import (
    STRATEGIES,
    CompiledResult,
    CompiledStrategy,
    specifier_config_for,
)
from repro.ie.template import GraphTemplates


class Solutions:
    """Lazy access to an AI query's solutions (single-solution interface).

    Iterating produces one solution at a time as a ``{variable name:
    value}`` dict; with the interpretive strategies the underlying
    inference (and any lazy CMS evaluation) only runs as far as the
    solutions actually consumed.

    Solution multiplicity follows the strategy, as in the paper's Section
    2(b): the interpretive strategies enumerate one solution per
    *derivation* (Prolog semantics — a fact provable two ways appears
    twice), while the compiled strategy is set-at-a-time and reports each
    distinct answer once.
    """

    def __init__(self, query: Atom, source: Iterator[Substitution]):
        self.query = query
        self._source = source
        self._variables = sorted(query.variables(), key=lambda v: v.name)

    def __iter__(self) -> Iterator[dict[str, object]]:
        for substitution in self._source:
            yield self._as_dict(substitution)

    def _as_dict(self, substitution: Substitution) -> dict[str, object]:
        out = {}
        for variable in self._variables:
            value = substitution.resolve(variable)
            out[variable.name] = value.value if not isinstance(value, Var) else None
        return out

    def first(self) -> dict[str, object] | None:
        """The first solution only (the rest is never computed)."""
        for solution in self:
            return solution
        return None

    def all(self) -> list[dict[str, object]]:
        """Every solution, fully enumerated."""
        return list(self)


class InferenceEngine:
    """A logic-based AI system tailored for DBMS use."""

    def __init__(
        self,
        kb: KnowledgeBase,
        cms: CacheManagementSystem,
        strategy: str = "conjunction",
        generate_advice: bool = True,
        use_statistics: bool = True,
    ):
        if strategy not in STRATEGIES:
            raise InferenceError(f"unknown strategy {strategy!r}; have {STRATEGIES}")
        self.kb = kb
        self.cms = cms
        self.strategy = strategy
        self.generate_advice = generate_advice
        self.use_statistics = use_statistics
        #: The last session's artifacts, for inspection and tests.
        #: ``last_graph`` is the graph that was solved: the goal shape's
        #: template (over slot variables, runs naming views by run key)
        #: unless the shape is solved one graph per ask.
        self.last_graph: OrNode | None = None
        self.last_advice = None
        #: One problem graph per goal shape (:mod:`repro.ie.template`).
        self.templates = GraphTemplates(kb)
        # ``cms`` may be a baseline bridge (loose coupling shims) without a
        # tracer; those simply stay untraced.
        from repro.obs.tracer import Tracer

        self.tracer = getattr(cms, "tracer", None) or Tracer.disabled()

    # -- the AI query interface ------------------------------------------------------
    def ask(self, query: Atom | str) -> Solutions:
        """Solve an AI query; returns lazy solutions.

        For the ``compiled`` strategy all solutions are computed
        set-at-a-time before the first is returned (that is the point of
        that end of the I-C range); the interpretive strategies are
        single-solution and compute on demand.
        """
        goal = parse_atom(query) if isinstance(query, str) else query
        if self.strategy == "compiled":
            return self._ask_compiled(goal)
        return self._ask_interpretive(goal)

    def ask_all(self, query: Atom | str) -> list[dict[str, object]]:
        """All solutions of an AI query, as dicts."""
        return self.ask(query).all()

    def ask_first(self, query: Atom | str) -> dict[str, object] | None:
        """The first solution, or None."""
        return self.ask(query).first()

    def explain(self, query: Atom | str, solution: dict[str, object] | None = None):
        """Justify an answer: a proof tree of rules, facts, and built-ins.

        With ``solution`` (a dict from :meth:`ask`), that specific answer
        is justified; without it, the first provable instance is.  Returns
        a :class:`~repro.ie.explain.Proof` or None when no proof exists.
        """
        from repro.ie.explain import Explainer

        goal = parse_atom(query) if isinstance(query, str) else query
        explainer = Explainer(self.kb, self.cms)
        if solution is None:
            return explainer.explain(goal)
        return explainer.explain_solution(goal, solution)

    # -- interpretive path ----------------------------------------------------------------
    def _ask_interpretive(self, goal: Atom) -> Solutions:
        with self.tracer.span(
            "ie.ask", goal=str(goal), strategy=self.strategy
        ):
            config = specifier_config_for(self.strategy)
            template = self.templates.graph_for(
                goal,
                config,
                self.cms.statistics_of if self.use_statistics else None,
            )
            advice, views, scope = template.session(goal)
            self.last_graph = template.root
            self.last_advice = advice if self.generate_advice else None
            self.cms.begin_session(self.last_advice)
            controller = DepthFirstController(
                self.kb,
                self.cms,
                views,
                config,
                self.templates,
                use_statistics=self.use_statistics,
            )
        # The span covers session setup; solutions are pulled lazily, so
        # the inference itself is traced by the controller's step events
        # and the CMS's query spans as the consumer drives it.
        return Solutions(goal, controller.solve(template.root, goal, scope))

    # -- compiled path ---------------------------------------------------------------------
    def _ask_compiled(self, goal: Atom) -> Solutions:
        from repro.ie.advice_gen import simplest_advice

        with self.tracer.span(
            "ie.ask", goal=str(goal), strategy=self.strategy
        ):
            self.last_graph = None
            self.last_advice = (
                simplest_advice(self.kb, goal) if self.generate_advice else None
            )
            self.cms.begin_session(self.last_advice)
            compiled = CompiledStrategy(self.kb, self.cms).solve(goal)
        return Solutions(goal, self._compiled_substitutions(compiled))

    @staticmethod
    def _compiled_substitutions(result: CompiledResult) -> Iterator[Substitution]:
        for row in result.relation:
            bindings = {}
            for variable, value in zip(result.variables, row):
                from repro.logic.terms import Const

                bindings[variable] = Const(value)
            yield Substitution(bindings)
