"""The path expression creator (Sections 4.1 and 4.2.2).

"The path expression creator constructs a path expression by traversing
the problem graph.  All alternatives under decision points must be
traversed because the path expression creator will not have available the
DBMS contents on which the decision will be based when actual inferencing
is being done."

Construction rules (matching the paper's two worked examples):

* a database **run** contributes its view's query pattern;
* an **AND node** contributes a sequence of its elements in (shaped) body
  order; when the first element produces bindings that drive the rest,
  the rest is wrapped in a repetition ``<0, |V|>`` keyed to the first
  produced variable (example 1's ``(d2, d3)^<0,|Y|>``);
* a **user OR node** with several alternatives contributes a *sequence*
  of the alternative expressions when chronological backtracking fixes
  their order (example 1), but an *alternation* when each alternative is
  guarded by IE-only subgoals whose outcome is unknown in advance
  (example 2) — with selection term 1 when a mutual-exclusion SOA covers
  the guards;
* a **recursive reference** makes the enclosing sequence unbounded.
"""

from __future__ import annotations

from repro.logic.kb import KnowledgeBase
from repro.logic.terms import Var
from repro.advice.path_expression import (
    Alternation,
    Cardinality,
    PathExpr,
    QueryPattern,
    Sequence,
)
from repro.advice.view_spec import Binding, ViewSpecification
from repro.ie.problem_graph import (
    BUILTIN,
    RECURSIVE_REF,
    USER,
    AndNode,
    OrNode,
)
from repro.ie.view_specifier import SpecifierResult


def create_path_expression(
    root: OrNode, kb: KnowledgeBase, views: SpecifierResult
) -> PathExpr | None:
    """The session's path expression, or None when no database access can
    occur."""
    expr = _expr_of_or(root, kb, views)
    if expr is None:
        return None
    if isinstance(expr, Sequence) and expr.lower == 1 and expr.upper == 1:
        return expr
    return Sequence((expr,), lower=1, upper=1)


def bind_path_expression(
    expr: PathExpr, views: SpecifierResult, names: dict[str, str]
) -> PathExpr:
    """A template's path expression for one session: each pattern re-read
    from the session's view of that name, each ``|V|`` bound renamed
    through ``names``."""
    if isinstance(expr, QueryPattern):
        return _pattern_of(views.by_name[expr.view])
    if isinstance(expr, Alternation):
        members = tuple(bind_path_expression(m, views, names) for m in expr.members)
        return Alternation(members, selection=expr.selection)
    elements = tuple(bind_path_expression(e, views, names) for e in expr.elements)
    upper = expr.upper
    if isinstance(upper, Cardinality):
        upper = Cardinality(names.get(upper.variable, upper.variable))
    return Sequence(elements, lower=expr.lower, upper=upper)


def _pattern_of(view: ViewSpecification) -> QueryPattern:
    args = tuple(
        f"{term}{annotation}"
        for term, annotation in zip(view.definition.answers, view.annotations)
    )
    return QueryPattern(view.name, args)


def _expr_of_or(node: OrNode, kb: KnowledgeBase, views: SpecifierResult) -> PathExpr | None:
    if node.kind != USER:
        return None  # leaves contribute through their enclosing AND node
    member_exprs: list[PathExpr] = []
    guarded: list[bool] = []
    guard_goals = []
    for alternative in node.alternatives:
        expr = _expr_of_and(alternative, kb, views)
        if expr is None:
            continue
        member_exprs.append(expr)
        has_guard, guard = _leading_guard(alternative)
        guarded.append(has_guard)
        guard_goals.append(guard)
    if not member_exprs:
        return None
    if len(member_exprs) == 1:
        return member_exprs[0]
    if any(guarded):
        # IE-only guards decide which alternative emits queries: an
        # unordered alternation; mutually exclusive guards cap selection.
        selection = None
        real_guards = [g for g in guard_goals if g is not None]
        if len(real_guards) >= 2 and all(
            kb.soas.exclusive_pair(a, b)
            for i, a in enumerate(real_guards)
            for b in real_guards[i + 1:]
        ):
            selection = 1
        return Alternation(tuple(member_exprs), selection=selection)
    # Chronological backtracking tries the alternatives in rule order.
    return Sequence(tuple(member_exprs), lower=1, upper=1)


def _leading_guard(node: AndNode):
    """Does the rule start with subgoals the IE resolves without the DBMS?

    Returns (True, first_guard_goal) when the first body element is a
    user-defined or (non-comparison) built-in subgoal preceding any
    database run.
    """
    run_starts = {run[0] for run in node.runs}
    for index, child in enumerate(node.body):
        if index in run_starts:
            return False, None
        if child.kind in (USER, RECURSIVE_REF):
            return True, child.goal
        if child.kind == BUILTIN:
            return True, child.goal
    return False, None


def _expr_of_and(node: AndNode, kb: KnowledgeBase, views: SpecifierResult) -> PathExpr | None:
    elements: list[PathExpr] = []
    producers: list[list[Var]] = []
    unbounded = False
    runs_by_start = {run[0]: (run[1], run[2]) for run in node.runs}
    index = 0
    while index < len(node.body):
        if index in runs_by_start:
            end, name = runs_by_start[index]
            view = views.by_name[name]
            elements.append(_pattern_of(view))
            producers.append(
                [
                    term
                    for term, annotation in zip(view.definition.answers, view.annotations)
                    if isinstance(term, Var) and annotation is Binding.PRODUCER
                ]
            )
            index = end
            continue
        child = node.body[index]
        if child.kind == RECURSIVE_REF:
            unbounded = True
        elif child.kind == USER:
            sub = _expr_of_or(child, kb, views)
            if sub is not None:
                elements.append(sub)
                producers.append(list(child.goal.variables()))
        index += 1

    if not elements:
        return None
    expr = _with_driving_repetition(elements, producers)
    if unbounded:
        if isinstance(expr, Sequence):
            expr = Sequence(expr.elements, lower=0, upper=None)
        else:
            expr = Sequence((expr,), lower=0, upper=None)
    return expr


def _with_driving_repetition(
    elements: list[PathExpr], producers: list[list[Var]]
) -> PathExpr:
    """Wrap the tail in ``<0, |V|>`` when the head drives it per binding."""
    if len(elements) == 1:
        return elements[0]
    head, *tail = elements
    head_producers = producers[0]
    tail_vars: set[Var] = set()
    for vars_ in producers[1:]:
        tail_vars |= set(vars_)
    driving = next((v for v in head_producers if v in tail_vars), None)
    if driving is None:
        return Sequence(tuple(elements), lower=1, upper=1)
    if len(tail) == 1 and isinstance(tail[0], Sequence) and tail[0].lower == 1 and tail[0].upper == 1:
        inner = Sequence(tail[0].elements, lower=0, upper=Cardinality(driving.name))
    else:
        inner = Sequence(tuple(tail), lower=0, upper=Cardinality(driving.name))
    return Sequence((head, inner), lower=1, upper=1)
