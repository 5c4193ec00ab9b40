"""Graph templates: one problem graph per goal shape (Sections 4.2.1, 5.3.1).

"An IE-query is an instance of one of the view specifications with
constant bindings": view specifications are parametrised, and so is the
problem graph they come from.  Extraction, shaping and view specification
depend on an AI goal's constants only through where they sit, so the
engine builds one graph per *shape* — signature, polarity and binding
pattern (which arguments are constants, which positions share a variable)
— and binds it per ask and per recursive re-expansion.

A shape's template is built over a *template goal*: each constant becomes
a :class:`~repro.ie.problem_graph.Placeholder` (a constant of unknown
value), each variable a fresh one.  Every shaping and specifying decision
treats a placeholder as the constant it stands for.  A build that reads a
placeholder's value — unification against a head constant or a repeated
head variable, a ground built-in fold, an ``=`` binding, a
mutual-exclusion SOA match — depends on that value, so its shape is never
templated: each ask of it builds a graph for its own goal, as before.  A
graph shaped while a statistics lookup failed is solved once and not
kept, so the next ask retries the lookup.  Templates are dropped whenever
:attr:`~repro.logic.kb.KnowledgeBase.epoch` moves.

Once built, each placeholder becomes a *slot*, a variable of the template,
so an activation binds the template with an ordinary substitution: slots
to the goal's constants.  The controller's ``subst.apply`` then
instantiates the run literals, and :meth:`GraphTemplate.session` binds the
advice's view definitions and path expression the same way.  Runs name
their views by run key; the session's ``SpecifierResult`` resolves a key
to the name this session gave the view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import RemoteDBMSError, UnknownRelationError
from repro.logic.kb import KnowledgeBase
from repro.logic.terms import Atom, Const, Substitution, Var, fresh_var
from repro.caql.ast import ConjunctiveQuery
from repro.advice.language import AdviceSet
from repro.advice.path_expression import PathExpr
from repro.advice.view_spec import ViewSpecification
from repro.ie.advice_gen import generate_advice
from repro.ie.extractor import extract_problem_graph
from repro.ie.path_creator import bind_path_expression
from repro.ie.problem_graph import OrNode, Placeholder, PlaceholderRead, is_placeholder
from repro.ie.shaper import StatsLookup, shape
from repro.ie.view_specifier import SpecifierConfig, SpecifierResult


@dataclass
class GraphTemplate:
    """A shaped, view-specified problem graph, ready to be solved.

    With ``memoised`` the graph is its shape's template: ``root`` is over
    the template goal, whose constants are ``slots`` and whose variables
    are ``variables`` (one per variable class, in pattern order).
    Otherwise it was built for one goal and ``root`` is over that goal.
    """

    root: OrNode
    memoised: bool
    slots: tuple[Var, ...]
    variables: tuple[Var, ...]
    #: ``(run key, view)`` in the order the build named them; the root
    #: view's key is None.
    views: tuple[tuple[tuple | None, ViewSpecification], ...]
    path: PathExpr | None
    relevant: tuple[tuple[str, int], ...]
    #: The path expression per tuple of goal-variable names: a root
    #: session always names the views alike, so the rest is renaming.
    _paths: dict[tuple[str, ...], PathExpr] = field(default_factory=dict, init=False)

    def bind(self, goal: Atom) -> Substitution:
        """The slots bound to ``goal``'s constants, in argument order."""
        if not self.slots:
            return Substitution()
        constants = (arg for arg in goal.args if isinstance(arg, Const))
        return Substitution(zip(self.slots, constants))

    def register(self, session: SpecifierResult, scope: Substitution) -> None:
        """Name this graph's views in ``session``: a run key the session
        already has keeps its name; a new one gets the session's next name
        and its definition instantiated under ``scope`` — in the order a
        :func:`~repro.ie.view_specifier.specify_views` walk would name them."""
        for key, view in self.views:
            if key is None:
                if session.root_view is not None:
                    continue
            elif key in session.run_index:
                continue
            definition = view.definition
            session.add_view(
                key,
                tuple(scope.apply_term(term) for term in definition.answers),
                tuple(scope.apply(literal) for literal in definition.literals),
                view.annotations,
                view.rule_ids,
            )

    def session(self, goal: Atom) -> tuple[AdviceSet, SpecifierResult, Substitution]:
        """An AI query's advice, view registry and root scope.

        The root scope binds the slots to the goal's constants and the
        template's variables to the goal's own, so the root's queries and
        the advice read in the goal's variables.
        """
        goal_vars = tuple(dict.fromkeys(a for a in goal.args if isinstance(a, Var)))
        scope = Substitution([*self.bind(goal).items(), *zip(self.variables, goal_vars)])
        views = SpecifierResult()
        self.register(views, scope)
        path = self.path
        if path is not None:
            names = tuple(g.name for g in goal_vars)
            bound = self._paths.get(names)
            if bound is None:
                renames = {v.name: name for v, name in zip(self.variables, names)}
                bound = self._paths[names] = bind_path_expression(path, views, renames)
            path = bound
        advice = AdviceSet.from_views(
            list(views.views), path_expression=path, relevant_relations=self.relevant
        )
        return advice, views, scope

    def carry(
        self, solution: Substitution, goal_vars: tuple[Var, ...], into: Substitution
    ) -> Substitution:
        """``into`` extended with what ``solution`` — solved in this
        template's own scope — says about the goal's variables
        ``goal_vars`` (one per variable class, in pattern order).

        The goal's variables are the only link between the two scopes:
        each takes its class variable's value, and variables the template
        left unbound but aliased stay aliased.
        """
        aliases: dict[Var, Var] = {}
        for variable, goal_var in zip(self.variables, goal_vars):
            value = solution.resolve(variable)
            if isinstance(value, Var):
                first = aliases.setdefault(value, goal_var)
                if first != goal_var:
                    into = into.bind(goal_var, first)
            else:
                into = into.bind(goal_var, value)
        return into


class GraphTemplates:
    """One engine's graph templates, keyed by goal shape and specifier
    configuration; a value-dependent shape is keyed to None."""

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self._epoch = kb.epoch
        self._by_shape: dict[tuple, GraphTemplate | None] = {}

    def graph_for(
        self, goal: Atom, config: SpecifierConfig, stats_of: StatsLookup | None
    ) -> GraphTemplate:
        """The graph to solve ``goal`` with: its shape's template when the
        shape has one (built on its first ask), else a graph of its own."""
        epoch = self.kb.epoch
        if epoch != self._epoch:
            self._by_shape.clear()
            self._epoch = epoch
        classes: dict[Var, int] = {}
        pattern = tuple(
            classes.setdefault(arg, len(classes)) if isinstance(arg, Var) else -1
            for arg in goal.args
        )
        key = (
            goal.pred, goal.negated, pattern,
            config.max_conjuncts, config.flatten, stats_of is None,
        )
        template = self._by_shape.get(key, _UNBUILT)
        if template is None:
            return _build(self.kb, goal, config, stats_of, False, (), ())
        if template is not _UNBUILT:
            return template
        lookups = _Lookups(stats_of) if stats_of is not None else None
        try:
            template = _build_template(self.kb, goal, config, lookups)
        except PlaceholderRead:
            self._by_shape[key] = None
            if lookups is not None:
                lookups.rewind()
            return _build(self.kb, goal, config, lookups, False, (), ())
        if lookups is None or not lookups.failed:
            self._by_shape[key] = template
        return template


#: ``GraphTemplates._by_shape`` miss marker (None is a kept answer).
_UNBUILT = object()


class _Lookups:
    """One ask's statistics lookups, replayed after an abandoned build.

    A template build abandoned on a placeholder read made the same lookups,
    in the same order, as the goal's own build makes up to that point; the
    goal's build re-reads those outcomes instead of asking again, so the
    remote sees one build's lookups, as it always did.
    """

    def __init__(self, stats_of: StatsLookup):
        self.stats_of = stats_of
        self.failed = False
        self._made: list[tuple[str, object]] = []
        self._replay: list[tuple[str, object]] = []

    def __call__(self, pred: str):
        if self._replay:
            made_pred, outcome = self._replay.pop()
            if made_pred == pred:
                self._made.append((pred, outcome))
                if isinstance(outcome, Exception):
                    raise outcome
                return outcome
            self._replay.clear()
        try:
            outcome = self.stats_of(pred)
        except (RemoteDBMSError, UnknownRelationError) as exc:
            self.failed = True
            self._made.append((pred, exc))
            raise
        self._made.append((pred, outcome))
        return outcome

    def rewind(self) -> None:
        """Replay the lookups made so far to the next build."""
        self._replay = self._made[::-1]
        self._made = []


def _build_template(
    kb: KnowledgeBase, goal: Atom, config: SpecifierConfig, lookups: StatsLookup | None
) -> GraphTemplate:
    """The template of ``goal``'s shape; raises :class:`PlaceholderRead`
    when building it read a placeholder's value."""
    args = []
    classes: dict[Var, Var] = {}
    slots: list[Var] = []
    for arg in goal.args:
        if isinstance(arg, Var):
            args.append(classes.setdefault(arg, fresh_var()))
        else:
            args.append(Const(Placeholder(len(slots))))
            slots.append(fresh_var())
    template_goal = Atom(goal.pred, tuple(args), negated=goal.negated)
    return _build(
        kb, template_goal, config, lookups, True, tuple(slots), tuple(classes.values())
    )


def _build(
    kb: KnowledgeBase,
    goal: Atom,
    config: SpecifierConfig,
    lookups: StatsLookup | None,
    memoised: bool,
    slots: tuple[Var, ...],
    variables: tuple[Var, ...],
) -> GraphTemplate:
    """Extract, shape and specify ``goal``'s graph; then turn its
    placeholders into ``slots`` and its runs' view names into run keys."""
    root = extract_problem_graph(kb, goal)
    shape(root, kb, stats_of=lookups)
    advice, result = generate_advice(root, kb, goal, config)

    def slotted(atom: Atom) -> Atom:
        if not any(is_placeholder(arg) for arg in atom.args):
            return atom
        return Atom(
            atom.pred,
            tuple(slots[a.value.index] if is_placeholder(a) else a for a in atom.args),
            negated=atom.negated,
        )

    key_of = {name: key for key, name in result.run_index.items()}
    pending = [root]
    while pending:
        node = pending.pop()
        node.goal = slotted(node.goal)
        for alternative in node.alternatives:
            alternative.head = slotted(alternative.head)
            alternative.runs = [
                (start, end, key_of[name], answers)
                for start, end, name, answers in alternative.runs
            ]
            pending.extend(alternative.body)
    views = []
    for view in result.views:
        definition = view.definition
        literals = tuple(slotted(literal) for literal in definition.literals)
        if any(new is not old for new, old in zip(literals, definition.literals)):
            view = ViewSpecification(
                ConjunctiveQuery(definition.name, definition.answers, literals),
                view.annotations,
                rule_ids=view.rule_ids,
            )
        key = None if view.name == result.root_view else key_of[view.name]
        views.append((key, view))
    return GraphTemplate(
        root=root,
        memoised=memoised,
        slots=slots,
        variables=variables,
        views=tuple(views),
        path=advice.path_expression,
        relevant=advice.relevant_relations,
    )
