"""Acceptance: planted bugs in the two shortcuts of a cold key are caught.

A fresh query's key takes two shortcuts.  The exact tier tells a
canonical hit from a structurally identical one without rendering the
query's structural key whenever the two differ in their relations,
condition count or projection length (``planner._unlike``); and the
canonical build renders a fold's facts once and only renames tags per
candidate occurrence order (``canonical._key``).  One mutant each:

* ``tagged_occurrences`` — the shape test compares ``Occurrence``
  objects, tags included, though the structural key ignores tags: a
  stored part tagged ``t1`` with a constant-only projection and no
  conditions is counted as a canonical hit by a query tagged ``t0``.
* ``first_order_only`` — every candidate order reuses the conditions the
  first order rendered, so the key of a self-join depends on which
  spelling came first.

Each is killed by a hand case and by ``test_canonical_golden``.  Which
fuzz profile also kills each is recorded in EXPERIMENTS.md ("A cold key")
and ROADMAP item 8.
"""

import pytest

import repro.core.canonical as canonical_module
import repro.core.planner as planner_module
from repro.caql.eval import psj_of
from repro.caql.parser import parse_query
from repro.caql.psj import ConstProj, Occurrence, PSJQuery
from repro.core.canonical import canonical_key
from repro.core.cms import CacheManagementSystem
from repro.relational.relation import relation_from_columns
from repro.remote.server import RemoteDBMS
from tests.core import test_canonical_golden as golden

real_key = canonical_module._key


def _tagged_occurrences(a, b):
    """``_unlike`` comparing occurrences as objects, tags and all."""
    return (
        a.occurrences != b.occurrences
        or len(a.conditions) != len(b.conditions)
        or len(a.projection) != len(b.projection)
    )


def _first_order_only():
    """``_key`` that renders conditions for the first order it is asked
    under and reuses them for every later order of the same fold."""
    first: dict[int, tuple] = {}  # id(fold) -> (fold, its first key)

    def key(folded, fragments, constants):
        rendered = real_key(folded, fragments, constants)
        kept = first.setdefault(id(folded), (folded, rendered))[1]
        return rendered[:2] + (kept[2],) + rendered[3:]

    return key


@pytest.fixture
def tagged_occurrences(monkeypatch):
    monkeypatch.setattr(planner_module, "_unlike", _tagged_occurrences)


@pytest.fixture
def first_order_only(monkeypatch):
    monkeypatch.setattr(canonical_module, "_key", _first_order_only())


# -- the hand cases ------------------------------------------------------------------


def check_a_retagged_tag_free_part_is_no_variant():
    """A stored definition tagged ``t1`` that names no tag in its
    structural key (no condition, a constant-only projection) is the
    query tagged ``t0`` itself, not a variant spelling of it."""
    remote = RemoteDBMS()
    remote.load_table(relation_from_columns("b0", a=[1, 2], b=[10, 20]))
    cms = CacheManagementSystem(remote)
    cms.begin_session()
    stored = PSJQuery("part", (Occurrence("t1", "b0", 2),), (), (ConstProj(1),))
    cms.cache.store(stored, cms.rdi.fetch(stored))
    query = PSJQuery("q", (Occurrence("t0", "b0", 2),), (), (ConstProj(1),))
    hit = cms.planner.exact_hit(query)
    assert hit is not None and hit.element.definition is stored
    assert not hit.canonical


def check_a_self_join_keys_the_same_in_either_order():
    """The two spellings of one self-join share a key, whichever
    occurrence the body names first."""
    one = psj_of(parse_query("q(X) :- b0(X, Y), b0(Y, 3)"))
    other = psj_of(parse_query("q(X) :- b0(Y, 3), b0(X, Y)"))
    assert canonical_key(one) == canonical_key(other)


class TestTheHandCasesPassOnTheRealCode:
    def test_tag_free_part(self):
        check_a_retagged_tag_free_part_is_no_variant()

    def test_self_join(self):
        check_a_self_join_keys_the_same_in_either_order()


class TestTaggedOccurrencesIsCaught:
    def test_by_the_hand_case(self, tagged_occurrences):
        with pytest.raises(AssertionError):
            check_a_retagged_tag_free_part_is_no_variant()

    def test_by_the_golden_variant_digest(self, tagged_occurrences):
        assert golden.variants_digest() != golden.VARIANTS_SHA256


class TestFirstOrderOnlyIsCaught:
    def test_by_the_hand_case(self, first_order_only):
        with pytest.raises(AssertionError):
            check_a_self_join_keys_the_same_in_either_order()

    def test_by_the_golden_key_digest(self, first_order_only):
        assert golden.keys_digest() != golden.KEYS_SHA256
