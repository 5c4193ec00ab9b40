"""Path expression tracking (Section 4.2.2).

"Path expression tracking deals with the problem of establishing an
association between a given CAQL query and a path expression. ... the CMS
must be able to keep track of the path expression element to which a given
CAQL query corresponds."

The tracker compiles a path expression to an NFA over view names and
simulates it as queries arrive:

* :meth:`PathTracker.observe` advances the automaton on one CAQL query;
* :meth:`PathTracker.predicted_next` is the set of views that may be
  requested next — the prefetch candidates;
* :meth:`PathTracker.distance_to` is the minimum number of future queries
  before a view could be needed — the replacement-priority signal (the
  paper's example: "d1 will be required for one of the next two queries.
  If the CMS needs to replace some cache element it is clear that d1 is
  not the best candidate").

Repetition bounds with symbolic upper limits (``|Y|``) are tracked as
unbounded loops; large concrete bounds are capped the same way (the NFA
stays small and prediction stays sound: a looser automaton only ever
*over*-predicts, never misses a successor).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.advice.path_expression import (
    Alternation,
    PathExpr,
    QueryPattern,
    Sequence,
)

#: Concrete repetition counts above this are tracked as unbounded.
EXPANSION_CAP = 12


@dataclass
class _NFA:
    transitions: dict[int, list[tuple[str, int]]] = field(
        default_factory=lambda: defaultdict(list)
    )
    epsilons: dict[int, list[int]] = field(default_factory=lambda: defaultdict(list))
    _next_state: int = 0

    def new_state(self) -> int:
        state = self._next_state
        self._next_state += 1
        return state

    def edge(self, src: int, symbol: str, dst: int) -> None:
        self.transitions[src].append((symbol, dst))

    def eps(self, src: int, dst: int) -> None:
        self.epsilons[src].append(dst)

    def closure(self, states: frozenset[int]) -> frozenset[int]:
        seen = set(states)
        stack = list(states)
        while stack:
            state = stack.pop()
            for nxt in self.epsilons.get(state, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    def step(self, states: frozenset[int], symbol: str) -> frozenset[int]:
        out = set()
        for state in states:
            for label, dst in self.transitions.get(state, ()):
                if label == symbol:
                    out.add(dst)
        return self.closure(frozenset(out))

    def outgoing_symbols(self, states: frozenset[int]) -> set[str]:
        out = set()
        for state in states:
            for label, _dst in self.transitions.get(state, ()):
                out.add(label)
        return out

    def step_any(self, states: frozenset[int]) -> frozenset[int]:
        out = set()
        for state in states:
            for _label, dst in self.transitions.get(state, ()):
                out.add(dst)
        return self.closure(frozenset(out))


def _compile(nfa: _NFA, expr: PathExpr) -> tuple[int, int]:
    """Thompson-style construction; returns (start, end) states."""
    if isinstance(expr, QueryPattern):
        start, end = nfa.new_state(), nfa.new_state()
        nfa.edge(start, expr.view, end)
        return start, end

    if isinstance(expr, Alternation):
        start, end = nfa.new_state(), nfa.new_state()
        for member in expr.members:
            m_start, m_end = _compile(nfa, member)
            nfa.eps(start, m_start)
            nfa.eps(m_end, end)
        return start, end

    if isinstance(expr, Sequence):
        def one_unit() -> tuple[int, int]:
            # Sequences have *prefix* semantics: the IE may abandon an
            # iteration after any element (a failing subgoal emits no
            # further queries — see the paper's valid sequences
            # "d1, d4, d1, ..." where d4 is not followed by d5), so every
            # element boundary gets an epsilon to the iteration end.
            u_start = current = nfa.new_state()
            element_ends = []
            for element in expr.elements:
                e_start, e_end = _compile(nfa, element)
                nfa.eps(current, e_start)
                current = e_end
                element_ends.append(e_end)
            for e_end in element_ends[:-1]:
                nfa.eps(e_end, current)
            return u_start, current

        start = nfa.new_state()
        current = start
        lower = min(expr.lower, EXPANSION_CAP)
        for _ in range(lower):
            u_start, u_end = one_unit()
            nfa.eps(current, u_start)
            current = u_end

        upper = expr.upper
        unbounded = upper is None or not isinstance(upper, int) or upper > EXPANSION_CAP
        end = nfa.new_state()
        if unbounded:
            # A Kleene loop after the required copies.
            u_start, u_end = one_unit()
            nfa.eps(current, u_start)
            nfa.eps(u_end, u_start)
            nfa.eps(u_end, end)
            nfa.eps(current, end)
        else:
            for _ in range(max(0, upper - lower)):
                u_start, u_end = one_unit()
                nfa.eps(current, u_start)
                nfa.eps(current, end)  # each extra copy is optional
                current = u_end
            nfa.eps(current, end)
        return start, end

    raise TypeError(f"not a path expression: {expr!r}")


class PathTracker:
    """Follows incoming CAQL queries through a path expression."""

    def __init__(self, expr: PathExpr):
        self.expression = expr
        self._nfa = _NFA()
        start, _end = _compile(self._nfa, expr)
        self._initial = self._nfa.closure(frozenset([start]))
        self._current = self._initial
        self.lost = False
        self.observed: list[str] = []

    # -- advancing -------------------------------------------------------------
    def observe(self, view: str) -> bool:
        """Advance on one query; returns False (and goes lost) when the
        query does not fit the prediction."""
        if self.lost:
            return False
        nxt = self._nfa.step(self._current, view)
        self.observed.append(view)
        if not nxt:
            self.lost = True
            self._current = frozenset()
            return False
        self._current = nxt
        return True

    # -- prediction --------------------------------------------------------------
    def predicted_next(self) -> set[str]:
        """Views that may be requested by the very next query."""
        return self._nfa.outgoing_symbols(self._current)

    def distance_to(self, view: str, horizon: int = 50) -> int | None:
        """Minimum number of future queries before ``view`` could appear.

        1 means "could be the very next query".  None means the view is
        unreachable from the current position (a safe eviction candidate).
        """
        states = self._current
        seen: set[frozenset[int]] = set()
        for depth in range(1, horizon + 1):
            if view in self._nfa.outgoing_symbols(states):
                return depth
            states = self._nfa.step_any(states)
            if not states or states in seen:
                return None
            seen.add(states)
        return None
