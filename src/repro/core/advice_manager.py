"""The Advice Manager.

Section 5: "The Advice Manager interacts with the QPO to assist in query
planning and optimization and with the Cache Manager to assist in caching
and replacement decisions."

It holds the session's advice, tracks the path expression as queries
arrive, and answers the decision questions of Section 4.2:

* *prefetching*: which views to fetch ahead (sequence companions that the
  tracker still expects);
* *result caching*: whether a view's result is worth keeping (predicted to
  recur, or unknown);
* *replacement*: the path tracker's rank of each view name, which makes
  advice a priority class of the cache's GreedyDual order
  (:mod:`repro.core.replacement`): views the tracker says can never recur
  are evicted first, views needed soon last;
* *attribute indexing*: consumer-annotated positions;
* *lazy vs eager*: pure-producer views evaluate lazily;
* *generalization*: views queried repeatedly with different constants
  (a repetition group in the path expression) are worth generalizing.
"""

from __future__ import annotations

from typing import Callable

from repro.advice.language import EMPTY_ADVICE, AdviceSet
from repro.advice.path_expression import (
    Alternation,
    PathExpr,
    QueryPattern,
    sequence_companions,
)
from repro.advice.tracker import PathTracker
from repro.advice.view_spec import ViewSpecification
from repro.core.replacement import tracker_rank


def _views_under_repetition(expr: PathExpr) -> set[str]:
    """View names inside a sequence that may iterate more than once."""
    out: set[str] = set()

    def walk(node: PathExpr, repeating: bool) -> None:
        if isinstance(node, QueryPattern):
            if repeating:
                out.add(node.view)
            return
        if isinstance(node, Alternation):
            for member in node.members:
                walk(member, repeating)
            return
        node_repeats = repeating or node.upper is None or not isinstance(node.upper, int) or node.upper > 1
        for element in node.elements:
            walk(element, node_repeats)

    walk(expr, False)
    return out


class AdviceManager:
    """Session-scoped advice state and decision logic."""

    def __init__(self) -> None:
        self.advice: AdviceSet = EMPTY_ADVICE
        self.tracker: PathTracker | None = None
        self._repeating_views: set[str] = set()

    # -- session lifecycle -------------------------------------------------------
    def begin_session(self, advice: AdviceSet | None) -> None:
        """Install a session's advice and start path tracking."""
        self.advice = advice if advice is not None else EMPTY_ADVICE
        if self.advice.path_expression is not None:
            self.tracker = PathTracker(self.advice.path_expression)
            self._repeating_views = _views_under_repetition(self.advice.path_expression)
        else:
            self.tracker = None
            self._repeating_views = set()

    def view(self, name: str) -> ViewSpecification | None:
        """The advised view specification named ``name``, or None."""
        return self.advice.view(name)

    # -- per-query tracking ----------------------------------------------------------
    def observe_query(self, view_name: str) -> None:
        """Advance the path tracker on one incoming query."""
        if self.tracker is not None:
            self.tracker.observe(view_name)

    def prefetch_candidates(self, view_name: str) -> list[str]:
        """Views to fetch ahead once ``view_name`` has been requested.

        Section 5.3.1: sequence grouping means the group's other items are
        "likely to be evaluated when the first item is evaluated" — but
        only those the tracker has not already seen satisfied and that are
        still reachable.
        """
        if self.advice.path_expression is None:
            return []
        companions = sequence_companions(self.advice.path_expression, view_name)
        if self.tracker is not None and not self.tracker.lost:
            companions = {
                name
                for name in companions
                if self.tracker.distance_to(name) is not None
            }
        return sorted(companions)

    # -- decisions ---------------------------------------------------------------------
    def should_cache_result(self, view_name: str) -> bool:
        """Cache unless advice positively says the view won't recur.

        A pure-producer view with no other predicted request "may also
        [not be cached] if there are no other predicted requests for it"
        (Section 4.2.1).
        """
        view = self.view(view_name)
        if view is None:
            return True
        if not view.is_pure_producer():
            return True
        if self.tracker is None or self.tracker.lost:
            return True
        return self.tracker.distance_to(view_name) is not None

    def index_positions(self, view_name: str) -> tuple[int, ...]:
        """Answer positions worth indexing (consumer annotations)."""
        view = self.view(view_name)
        if view is None:
            return ()
        return view.consumer_positions()

    def prefers_lazy(self, view_name: str) -> bool:
        """Section 5.3.3: ``d(X^, Y^)`` → evaluate lazily if cached."""
        view = self.view(view_name)
        return view is not None and view.is_pure_producer()

    def should_generalize(self, view_name: str) -> bool:
        """Generalize when the view is predicted to recur with varying
        constants: it sits under a repetition and has consumer positions."""
        view = self.view(view_name)
        if view is None or not view.consumer_positions():
            return False
        return view_name in self._repeating_views

    # -- replacement -------------------------------------------------------------------
    def replacement_ranks(self) -> Callable[[str], float] | None:
        """The live path tracker's replacement rank of a view name (see
        :func:`~repro.core.replacement.tracker_rank`), or None without a
        tracker or once it is lost."""
        tracker = self.tracker
        if tracker is None or tracker.lost:
            return None
        return lambda view_name: tracker_rank(tracker.distance_to(view_name))
