"""The view specifier (Sections 4.1 and 4.2.1).

"The view specifier flattens a problem graph ... and produces a set of
view specifications.  Parameters control the extent to which flattening is
applied.  Sequences of base and evaluable predicates under an AND node
constitute a candidate for a view specification.  As with flattening, a
parameter controls the maximum size of the conjunctions that can be
transformed into view specifications (with 1 being the smallest possible
value)."

The minimal argument set is the paper's formula ``A = (H ∪ B) ∩ D`` where
H is the head's variables, D the run's variables, and B the variables of
the rest of the body (after the run's literals are deleted).

Runs are recorded on each AND node (``node.runs``) so the inference
strategy controller emits exactly the CAQL queries the advice predicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.logic.kb import KnowledgeBase
from repro.logic.terms import Atom, Const, Var
from repro.caql.ast import COMPARISON_PREDS, ConjunctiveQuery
from repro.advice.view_spec import Binding, ViewSpecification
from repro.ie.problem_graph import (
    BUILTIN,
    DATABASE,
    USER,
    AndNode,
    OrNode,
)


@dataclass
class SpecifierConfig:
    """Tuning knobs for view specification.

    ``max_conjuncts`` bounds how many *database* literals one view may
    join (1 reproduces a fully interpreted, literal-at-a-time interface;
    None allows maximal runs — conjunction compilation).  ``flatten``
    bounds how many rounds of single-rule inlining are applied before run
    extraction.
    """

    max_conjuncts: int | None = None
    flatten: int = 2


@dataclass
class SpecifierResult:
    """The view specifications of a session, shared across re-expansions.

    The controller re-expands recursive references at solve time; each
    re-expanded graph names its views here by run key
    (:meth:`~repro.ie.template.GraphTemplate.register`), so structurally
    identical runs reuse their view names and the emitted query stream
    keeps matching the advice's path expression.
    """

    views: list[ViewSpecification] = field(default_factory=list)
    #: view name -> specification (convenience index).
    by_name: dict[str, ViewSpecification] = field(default_factory=dict)
    #: structural run key -> view name (cross-instance reuse).
    run_index: dict[tuple, str] = field(default_factory=dict)
    #: The synthetic view for a root-level database query, if any.
    root_view: str | None = None
    _counter: object = field(default_factory=lambda: itertools.count(1))

    def next_name(self) -> str:
        """The next unused view name (d1, d2, ...)."""
        return f"d{next(self._counter)}"

    def add_view(
        self,
        key: tuple | None,
        answers: tuple,
        literals: tuple,
        annotations: tuple[Binding, ...],
        rule_ids: tuple[str, ...],
    ) -> ViewSpecification:
        """Name and record a new view; ``key`` is its run key (None for
        the root view)."""
        name = self.next_name()
        definition = ConjunctiveQuery(name, tuple(answers), tuple(literals))
        view = ViewSpecification(definition, annotations, rule_ids=rule_ids)
        self.views.append(view)
        self.by_name[name] = view
        if key is None:
            self.root_view = name
        else:
            self.run_index[key] = name
        return view


def flatten_graph(root: OrNode, rounds: int) -> OrNode:
    """Inline single-rule user subgoals whose bodies are all leaves.

    This is the constrained DNF conversion: a user OR node with exactly
    one alternative adds no disjunction, so its body can be spliced into
    the parent conjunction, widening candidate runs.
    """
    for _ in range(max(0, rounds)):
        if not _flatten_once(root):
            break
    return root


def _flatten_once(root: OrNode) -> bool:
    changed = False
    for alternative in list(root.alternatives):
        new_body: list[OrNode] = []
        for child in alternative.body:
            if (
                child.kind == USER
                and len(child.alternatives) == 1
                # Splicing is only sound when expanding the rule bound
                # nothing in the caller's goal (head == goal after
                # unification); otherwise the head bindings would be lost.
                and child.alternatives[0].head == child.goal
                and all(
                    grandchild.kind in (DATABASE, BUILTIN)
                    for grandchild in child.alternatives[0].body
                )
            ):
                new_body.extend(child.alternatives[0].body)
                changed = True
            else:
                if child.kind == USER:
                    if _flatten_once(child):
                        changed = True
                new_body.append(child)
        alternative.body = new_body
    return changed


def specify_views(
    root: OrNode,
    kb: KnowledgeBase,
    config: SpecifierConfig | None = None,
    bound_at_root: set[Var] | None = None,
) -> SpecifierResult:
    """Produce view specifications for every database run in the graph.

    Runs are recorded in ``AndNode.runs`` as ``(start, end, view_name,
    answers)`` (end exclusive) over the node's body positions; ``answers``
    are this instance's minimal-argument-set terms, which the controller
    instantiates at query time.
    """
    config = config if config is not None else SpecifierConfig()
    flatten_graph(root, config.flatten)
    result = SpecifierResult()
    if root.kind == DATABASE and not root.goal.negated:
        _make_root_view(root, result)
        return result
    _specify_or(root, kb, config, bound_at_root or set(), result)
    return result


def _make_root_view(root: OrNode, result: SpecifierResult) -> None:
    """A synthetic view for an AI query directly on a database relation."""
    answers = tuple(dict.fromkeys(a for a in root.goal.args if isinstance(a, Var)))
    annotations = tuple(Binding.PRODUCER for _ in answers)
    result.add_view(None, answers, (root.goal,), annotations, ("query",))


def minimal_argument_set(
    head: Atom, run_literals: list[Atom], rest_literals: list[Atom]
) -> list[Var]:
    """``A = (H ∪ B) ∩ D``, ordered by first occurrence in the run."""
    h = head.variables()
    d_ordered: list[Var] = []
    for literal in run_literals:
        for arg in literal.args:
            if isinstance(arg, Var) and arg not in d_ordered:
                d_ordered.append(arg)
    b: set[Var] = set()
    for literal in rest_literals:
        b |= literal.variables()
    keep = h | b
    return [v for v in d_ordered if v in keep]


def _specify_or(
    node: OrNode,
    kb: KnowledgeBase,
    config: SpecifierConfig,
    bound: set[Var],
    result: SpecifierResult,
) -> None:
    goal_bound = {v for v in node.goal.variables() if v in bound}
    for alternative in node.alternatives:
        _specify_and(alternative, kb, config, set(goal_bound), result)


def _specify_and(
    node: AndNode,
    kb: KnowledgeBase,
    config: SpecifierConfig,
    bound: set[Var],
    result: SpecifierResult,
) -> None:
    node.runs = []
    body = node.body
    index = 0
    while index < len(body):
        child = body[index]
        if _starts_run(child):
            start = index
            end, run_literals = _extend_run(body, index, bound, config.max_conjuncts)
            rest_literals = [
                body[i].goal for i in range(len(body)) if not start <= i < end
            ]
            answers = minimal_argument_set(node.head, run_literals, rest_literals)
            view = _make_view(node, run_literals, answers, bound, result)
            node.runs.append((start, end, view.name, tuple(answers)))
            for literal in run_literals:
                bound |= literal.variables()
            index = end
            continue
        if child.kind == USER:
            _specify_or(child, kb, config, bound, result)
        # After any conjunct is solved, its variables are bound.
        bound |= child.goal.variables()
        index += 1


def _starts_run(child: OrNode) -> bool:
    return child.kind == DATABASE and not child.goal.negated


def _is_run_comparison(child: OrNode, seen_vars: set[Var], bound: set[Var]) -> bool:
    if child.kind != BUILTIN or child.goal.negated:
        return False
    if child.goal.pred not in COMPARISON_PREDS:
        return False
    return all(
        isinstance(arg, Const) or arg in seen_vars or arg in bound
        for arg in child.goal.args
    )


def _extend_run(
    body: list[OrNode], start: int, bound: set[Var], max_conjuncts: int | None
) -> tuple[int, list[Atom]]:
    literals = [body[start].goal]
    seen_vars = set(body[start].goal.variables())
    database_count = 1
    index = start + 1
    while index < len(body):
        child = body[index]
        if _starts_run(child):
            if max_conjuncts is not None and database_count >= max_conjuncts:
                break
            literals.append(child.goal)
            seen_vars |= child.goal.variables()
            database_count += 1
            index += 1
            continue
        if _is_run_comparison(child, seen_vars, bound):
            literals.append(child.goal)
            index += 1
            continue
        break
    return index, literals


def _make_view(
    node: AndNode,
    run_literals: list[Atom],
    answers: list[Var],
    bound: set[Var],
    result: SpecifierResult,
) -> ViewSpecification:
    annotations = tuple(
        Binding.CONSUMER if var in bound else Binding.PRODUCER for var in answers
    )
    # Structurally identical runs (same rule, same literal shape, same
    # binding pattern) share a view name across graph instances, so
    # re-expanded recursion keeps emitting the advertised names.
    key = (
        node.rule_id,
        tuple((l.pred, l.arity, l.negated) for l in run_literals),
        annotations,
    )
    existing = result.run_index.get(key)
    if existing is not None:
        return result.by_name[existing]
    return result.add_view(key, answers, run_literals, annotations, (node.rule_id,))
