"""Acceptance: planted bugs in the write path of a stored part are caught, and where.

The victim heap (``Cache._pick_victim``) scores only elements whose bound
can still beat the best score found, and a relation builds its row set on
the first membership question.  Three mutants, one per thing those fast
paths must keep:

* ``unkeyed`` — :meth:`Cache.annotate` marks an element expendable (its
  score rises by 1e9) but does not re-key it, so its heap key sits below
  its score and the pick stops before reaching it.  Killed by the hand
  case, by ``Cache.check_invariants`` (a key below its element's bound)
  and by the victim model property.
* ``heap_position`` — equal scores go to the entry popped first, not to
  the element stored first as ``max`` over store order has it.  Killed by
  the hand case and by the victim model property.
* ``shared_unbuilt`` — ``Relation.with_schema`` shares the owner's row
  set as it is, unbuilt, so owner and alias later build two sets over one
  row list and an insert through one is invisible to the other.  Killed by
  the hand case and by the lazy-set model property.

The ``churny`` fuzz profile kills neither of the first two through the
audit: at the size FINGERPRINTS.json pins (75 cases) its traffic marks no
element expendable (the annotation that raises a bound never runs) and no
pick meets two equal top scores.
"""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.core.cache as cache_module
from repro.common.errors import InvariantViolation
from repro.core.cache import Cache
from repro.relational.relation import Relation
from tests.core import test_victim_heap as victims
from tests.relational import test_lazy_row_set as rowsets

real_annotate = Cache.annotate


def _unkeyed(monkeypatch):
    def annotate(self, element, expendable, advised):
        self._file = lambda element: None  # the re-key never happens
        try:
            real_annotate(self, element, expendable, advised)
        finally:
            del self._file

    monkeypatch.setattr(Cache, "annotate", annotate)


def _heap_position(monkeypatch):
    monkeypatch.setattr(
        cache_module,
        "_beats",
        lambda score, element, best_score, best: best is None or score > best_score,
    )


def _shared_unbuilt(monkeypatch):
    def with_schema(self, schema):
        out = Relation.__new__(Relation)
        out.schema = schema
        out._rows = self._rows
        out._row_set = self._row_set  # the mutation: may be None
        out._sized_rows = self._sized_rows
        out._sized_bytes = self._sized_bytes
        return out

    monkeypatch.setattr(Relation, "with_schema", with_schema)


PINNED = dict(
    deadline=None,
    database=None,
    derandomize=True,
    phases=(Phase.generate, Phase.shrink),
)


def run_victim_property(examples: int) -> None:
    inner = victims.test_every_pick_names_the_full_scan_victim.hypothesis.inner_test
    settings(max_examples=examples, **PINNED)(given(victims.OPERATIONS, victims.EXEMPT)(inner))()


class TestUnkeyedAnnotation:
    def test_killed_by_the_hand_case(self, monkeypatch):
        victims.check_marking_an_element_expendable_re_keys_it()
        _unkeyed(monkeypatch)
        with pytest.raises(AssertionError):
            victims.check_marking_an_element_expendable_re_keys_it()

    def test_killed_by_check_invariants(self, monkeypatch):
        _unkeyed(monkeypatch)
        _, cache = victims.session_cache()
        victims.store(cache, "e(X) :- b(X, 1)")
        newer = victims.store(cache, "f(X) :- b(X, 2)")
        cache.annotate(newer, expendable=True, advised=False)
        with pytest.raises(InvariantViolation, match="without re-keying"):
            cache.check_invariants()

    def test_killed_by_the_model_property(self, monkeypatch):
        _unkeyed(monkeypatch)
        with pytest.raises((AssertionError, InvariantViolation)):
            run_victim_property(200)


class TestHeapPositionTies:
    def test_killed_by_the_hand_case(self, monkeypatch):
        victims.check_equal_scores_go_to_the_earlier_store()
        _heap_position(monkeypatch)
        with pytest.raises(AssertionError):
            victims.check_equal_scores_go_to_the_earlier_store()

    def test_killed_by_the_model_property(self, monkeypatch):
        _heap_position(monkeypatch)
        with pytest.raises((AssertionError, InvariantViolation)):
            run_victim_property(200)


class TestSharedUnbuiltSet:
    def test_killed_by_the_hand_case(self, monkeypatch):
        rows = [(i, 0) for i in range(5)]
        rowsets.check_an_alias_insert_is_seen_by_the_owner(rows)
        _shared_unbuilt(monkeypatch)
        with pytest.raises(AssertionError):
            rowsets.check_an_alias_insert_is_seen_by_the_owner(rows)

    def test_killed_by_the_model_property(self, monkeypatch):
        _shared_unbuilt(monkeypatch)
        inner = rowsets.test_the_lazy_set_follows_an_eager_reference.hypothesis.inner_test
        with pytest.raises((AssertionError, InvariantViolation)):
            settings(max_examples=300, **PINNED)(
                given(st.lists(rowsets.ROWS, max_size=6), rowsets.OPERATIONS)(inner)
            )()
