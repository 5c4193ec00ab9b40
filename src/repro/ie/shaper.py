"""The problem graph shaper (Section 4.1).

"The problem graph shaper eagerly constrains the problem graph using
constant propagation techniques. ... constants may also be produced by
evaluating predicates all of whose arguments are bound. ... cardinality
and selectivity information from the DBMS schema and from functional
dependency SOA's ... is used to determine producer-consumer relationships
(which gets translated into conjunct orderings ...).  Finally, parts of
the problem graph under OR nodes are culled away to the extent that this
is logically valid given its constant pushing and mutual exclusion SOAs."

The shaper mutates the graph in place and returns it.
"""

from __future__ import annotations

from typing import Callable

from repro.common.errors import (
    EvaluationError,
    RemoteDBMSError,
    UnknownRelationError,
)
from repro.logic.kb import KnowledgeBase
from repro.logic.terms import Atom, Const, Substitution, Var
from repro.relational.statistics import RelationStatistics
from repro.ie.problem_graph import (
    BUILTIN,
    DATABASE,
    USER,
    AndNode,
    OrNode,
    PlaceholderRead,
    is_placeholder,
)

#: Resolves a database predicate to its remote statistics; raises
#: ``RemoteDBMSError``/``UnknownRelationError`` when it has none to give.
StatsLookup = Callable[[str], RelationStatistics]

#: Cost rank for subgoals we cannot estimate.
_USER_GOAL_COST = 500.0
_UNKNOWN_DB_COST = 100.0


def shape(
    graph: OrNode,
    kb: KnowledgeBase,
    stats_of: StatsLookup | None = None,
    reorder: bool = True,
) -> OrNode:
    """Cull, constant-fold, and order the problem graph in place."""
    _shape_or(graph, kb, stats_of, reorder)
    return graph


def _shape_or(node: OrNode, kb: KnowledgeBase, stats_of, reorder: bool) -> None:
    survivors = []
    for alternative in node.alternatives:
        if _shape_and(alternative, kb, stats_of, reorder):
            survivors.append(alternative)
    node.alternatives = survivors


def _shape_and(node: AndNode, kb: KnowledgeBase, stats_of, reorder: bool) -> bool:
    """Shape one rule application; returns False when it is culled."""
    # 1. Evaluate ground built-ins; propagate bindings from `=` leaves.
    if not _fold_builtins(node, kb):
        return False

    # 2. Mutual-exclusion culling: two positive conjuncts covered by a
    #    mutual-exclusion SOA can never hold together.
    positive_leaf_goals = [
        child.goal
        for child in node.body
        if not child.goal.negated
    ]
    for i, a in enumerate(positive_leaf_goals):
        for b in positive_leaf_goals[i + 1:]:
            if kb.soas.exclusive_pair(a, b):
                return False

    # 3. Recurse into user-defined children.
    for child in node.body:
        if child.kind == USER:
            _shape_or(child, kb, stats_of, reorder)

    # 4. Producer-consumer ordering.
    if reorder:
        node.body = _order_conjuncts(node, kb, stats_of)
    return True


def _fold_builtins(node: AndNode, kb: KnowledgeBase) -> bool:
    """Evaluate decided built-ins; returns False if one fails.

    Both folds read their constants' values, so neither may run over a
    template goal's placeholder (:class:`~repro.ie.problem_graph.Placeholder`).
    """
    changed = True
    while changed:
        changed = False
        for index, child in enumerate(node.body):
            if child.kind != BUILTIN or child.goal.negated:
                continue
            goal = child.goal
            if any(is_placeholder(arg) for arg in goal.args) and (
                goal.is_ground() or goal.pred == "="
            ):
                raise PlaceholderRead(f"built-in {goal} over a placeholder")
            if goal.is_ground():
                try:
                    holds = any(True for _ in kb.builtins.evaluate(goal, Substitution()))
                except EvaluationError:
                    continue
                if not holds:
                    return False
                del node.body[index]
                changed = True
                break
            if goal.pred == "=" and goal.arity == 2:
                binding = _equality_binding(goal)
                if binding is not None:
                    _substitute_subtree(node, binding)
                    del node.body[index]
                    changed = True
                    break
    return True


def _equality_binding(goal: Atom) -> Substitution | None:
    left, right = goal.args
    if isinstance(left, Var) and isinstance(right, Const):
        return Substitution({left: right})
    if isinstance(right, Var) and isinstance(left, Const):
        return Substitution({right: left})
    return None


def _substitute_subtree(node: AndNode, binding: Substitution) -> None:
    node.head = binding.apply(node.head)
    for child in node.body:
        _substitute_or(child, binding)


def _substitute_or(node: OrNode, binding: Substitution) -> None:
    node.goal = binding.apply(node.goal)
    for alternative in node.alternatives:
        _substitute_subtree(alternative, binding)


def _order_conjuncts(node: AndNode, kb: KnowledgeBase, stats_of) -> list[OrNode]:
    """Greedy cheapest-admissible-first ordering.

    Built-ins are only admissible once their variables are bound (they are
    filters/computations, not generators), so the producer-consumer
    discipline is preserved by construction.
    """
    # Head variables are unbound at shaping time (call-time constants were
    # already pushed into the subtree by unification during extraction).
    bound: set[Var] = set()
    remaining = list(node.body)
    ordered: list[OrNode] = []
    while remaining:
        best_index = None
        best_cost = None
        for index, child in enumerate(remaining):
            admissible, cost = _conjunct_cost(child, bound, kb, stats_of)
            if not admissible:
                continue
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_index = index
        if best_index is None:
            # Only inadmissible built-ins remain: keep original order and
            # hope bindings arrive at run time.
            ordered.extend(remaining)
            break
        chosen = remaining.pop(best_index)
        ordered.append(chosen)
        bound |= chosen.goal.variables()
    return ordered


def _conjunct_cost(
    child: OrNode, bound: set[Var], kb: KnowledgeBase, stats_of
) -> tuple[bool, float]:
    goal = child.goal
    free = {v for v in goal.variables() if v not in bound}
    if goal.negated:
        # Negation-as-failure is a filter, never a generator: it must not
        # run before its (non-existential) variables are bound.  Variables
        # appearing nowhere else stay free; such goals fall through to the
        # end of the ordering via the inadmissible path.
        return (not free), 0.1
    if child.kind == BUILTIN:
        # A builtin with free variables cannot run yet (except `=` which
        # can bind one side).
        if goal.pred == "=" and len(free) == 1:
            return True, 0.5
        return (not free), 0.0
    if child.kind == DATABASE:
        bound_positions = sum(
            1
            for arg in goal.args
            if isinstance(arg, Const) or (isinstance(arg, Var) and arg in bound)
        )
        for fd in kb.soas.fds_for(goal.pred, goal.arity):
            determinants_bound = all(
                isinstance(goal.args[i], Const)
                or (isinstance(goal.args[i], Var) and goal.args[i] in bound)
                for i in fd.determinants
            )
            if determinants_bound:
                return True, 1.0  # key lookup: at most one row
        cardinality = _UNKNOWN_DB_COST
        if stats_of is not None:
            try:
                cardinality = float(stats_of(goal.pred).cardinality)
            except (RemoteDBMSError, UnknownRelationError):
                # Statistics unavailable, decided here and nowhere else;
                # anything else a lookup raises is a fault and propagates.
                pass
        return True, cardinality * (0.1 ** bound_positions)
    # User-defined / recursive / unknown.
    bound_fraction = 0.0
    if goal.args:
        bound_count = sum(
            1
            for arg in goal.args
            if isinstance(arg, Const) or (isinstance(arg, Var) and arg in bound)
        )
        bound_fraction = bound_count / len(goal.args)
    return True, _USER_GOAL_COST * (1.0 - 0.5 * bound_fraction)
