"""Acceptance: planted bugs in the write path of a stored part are caught, and where.

The cache's GreedyDual order (``repro.core.replacement``) is exact only if
every write that moves a priority re-keys it and every pick reads the
classes; a relation builds its row set on the first membership question.
Four mutants, one per thing those paths must keep:

* ``flat_inflation`` — eviction does not raise L to the victim's H, so an
  element nobody touches never ages out.  Killed by the hand case and by
  the model property.
* ``unkeyed_touch`` — a touch or an ancestor warm updates the element but
  files no new entry, so the pick reads its old recency and priority.
  Killed by the hand case, by ``Cache.check_invariants`` (an entry whose
  sequence is stale) and by the model property.
* ``classless`` — the pick ignores the live tracker's classes, as if no
  tracker were live.  Killed by the hand case and by the model property.
* ``shared_unbuilt`` — ``Relation.with_schema`` shares the owner's row
  set as it is, unbuilt, so owner and alias later build two sets over one
  row list and an insert through one is invisible to the other.  Killed by
  the hand case and by the lazy-set model property.

Which fuzz profile, through the audit, kills each of the first three is
recorded in EXPERIMENTS.md ("GreedyDual replacement").
"""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.common.errors import InvariantViolation
from repro.core.advice_manager import AdviceManager
from repro.core.cache import Cache
from repro.core.replacement import GreedyDual
from repro.relational.relation import Relation
from tests.core import test_replacement as policy
from tests.relational import test_lazy_row_set as rowsets

real_touch, real_warm = Cache.touch, Cache._warm_ancestors


def _flat_inflation(monkeypatch):
    monkeypatch.setattr(
        GreedyDual, "evict", lambda self, element: self._entries.pop(element.element_id)
    )


def _unkeyed_touch(monkeypatch):
    real_rekey, muted = GreedyDual.rekey, []

    def rekey(self, element):
        if not muted:
            real_rekey(self, element)

    def muting(real):
        def write(self, element):
            muted.append(element)  # no new entry while a touch or warm runs
            try:
                real(self, element)
            finally:
                muted.pop()

        return write

    monkeypatch.setattr(GreedyDual, "rekey", rekey)
    monkeypatch.setattr(Cache, "touch", muting(real_touch))
    monkeypatch.setattr(Cache, "_warm_ancestors", muting(real_warm))


def _classless(monkeypatch):
    monkeypatch.setattr(AdviceManager, "replacement_ranks", lambda self: None)


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
    # A kill needs one failing example, not a shrunk one.
    phases=(Phase.generate,),
    report_multiple_bugs=False,
)


def run_model_property(examples: int) -> None:
    inner = policy.test_every_pick_is_the_model_argmin.hypothesis.inner_test
    strategies = (policy.OPERATIONS, policy.EXEMPT, policy.FEATURES)
    settings(max_examples=examples, **PINNED)(given(*strategies)(inner))()


class TestFlatInflation:
    def test_killed_by_the_hand_case(self, monkeypatch):
        policy.check_eviction_raises_inflation()
        _flat_inflation(monkeypatch)
        with pytest.raises(AssertionError):
            policy.check_eviction_raises_inflation()

    def test_killed_by_the_model_property(self, monkeypatch):
        _flat_inflation(monkeypatch)
        with pytest.raises((AssertionError, InvariantViolation)):
            run_model_property(200)


class TestUnkeyedTouch:
    def test_killed_by_the_hand_case(self, monkeypatch):
        policy.check_touch_and_warm_re_key()
        _unkeyed_touch(monkeypatch)
        with pytest.raises(AssertionError):
            policy.check_touch_and_warm_re_key()

    def test_killed_by_check_invariants(self, monkeypatch):
        _unkeyed_touch(monkeypatch)
        cache = Cache()
        element = policy.store(cache, "e(X) :- b(X, 1)")
        cache.touch(element)
        with pytest.raises(InvariantViolation, match="did not re-key"):
            cache.check_invariants()

    def test_killed_by_the_model_property(self, monkeypatch):
        _unkeyed_touch(monkeypatch)
        with pytest.raises((AssertionError, InvariantViolation)):
            run_model_property(200)


class TestClassless:
    def test_killed_by_the_hand_case(self, monkeypatch):
        policy.check_tracker_classes()
        _classless(monkeypatch)
        with pytest.raises(AssertionError):
            policy.check_tracker_classes()

    def test_killed_by_the_model_property(self, monkeypatch):
        _classless(monkeypatch)
        with pytest.raises((AssertionError, InvariantViolation)):
            run_model_property(200)


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
