"""Acceptance: planted bugs in the exact tier and the one-step request are
caught by hand cases.

An exact hit is one ``Cache.read`` in one server step: the planner's
exact tier finds the element, the CMS reads it, and the server drains
the answer in the step that produced it.  Three mutants, one per thing
that path must keep:

* ``unread`` — the exact tier serves the element without
  ``Cache.read``: no touch, no efficacy credit, so the GreedyDual order
  and the efficacy ledger drift from what the hits earned.
* ``structural_blind`` — the exact tier ignores ``canonical=False`` and
  serves variant spellings as canonical hits in the structural-only
  ablation (E22's baseline).
* ``leaked_pin`` — the executor skips the ``finally`` unpin after a
  plan, so the element a lazy answer derives from stays pinned after its
  step — exempt from eviction for good.

Which fuzz profile also kills the first two is recorded in EXPERIMENTS.md
("One read, one step") and ROADMAP item 8.
"""

import pytest

from repro.caql.eval import psj_of
from repro.caql.parser import parse_query
from repro.common.metrics import (
    CACHE_HITS_CANONICAL,
    CACHE_HITS_EXACT,
    CACHE_HITS_SUBSUMED,
    CACHE_SAVED_SECONDS,
)
from repro.core.canonical import canonicalize
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.core.executor import ExecutionMonitor
from repro.core.planner import ExactHit, QueryPlanner
from repro.remote.server import RemoteDBMS
from repro.workloads.synthetic import selection_universe
from tests.server.test_admission import check_every_answer_completes_in_its_execute_step

TABLES = selection_universe(rows=40, seed=5).tables


def make_cms(capacity_bytes=4_000_000, features=None):
    remote = RemoteDBMS()
    for table in TABLES:
        remote.load_table(table)
    cms = CacheManagementSystem(remote, capacity_bytes, features=features)
    cms.begin_session()
    return cms


def element_of(cms, text):
    hit = cms.planner.exact_hit(psj_of(parse_query(text)))
    return hit.element if hit is not None else None


# -- the hand cases ------------------------------------------------------------------


A = "a(I, V) :- item(I, cat1, V)"
B = "b(I, V) :- item(I, cat2, V)"
C = "c(I, V) :- item(I, cat3, V)"


def check_an_exact_hit_is_one_read():
    """Re-asking A credits A's ledger and, in the LRU order (uniform
    value), keeps it over the untouched B when C needs room."""
    probe = make_cms()
    size = {}
    for text in (A, B, C):
        probe.query(parse_query(text)).fetch_all()
        size[text] = element_of(probe, text).estimated_bytes()
    # Room for C beside either one of A and B, not beside both.
    room = max(size[A], size[B]) + size[C]
    assert room < size[A] + size[B] + size[C]

    cms = make_cms(room, features=CMSFeatures(cost_replacement=False))
    for text in (A, B):
        cms.query(parse_query(text)).fetch_all()
    a = element_of(cms, A)
    assert a.derivation_seconds > 0 and a.use_count == 0
    cms.query(parse_query(A)).fetch_all()
    assert cms.metrics.get(CACHE_HITS_EXACT) == 1
    assert a.use_count == 1
    assert a.saved_seconds == a.derivation_seconds
    assert cms.metrics.get(CACHE_SAVED_SECONDS) == a.derivation_seconds
    cms.query(parse_query(C)).fetch_all()
    assert element_of(cms, A) is a  # the hit kept it
    assert element_of(cms, B) is None  # the untouched one went


#: Equivalent spellings whose structural keys differ (a respelled
#: constant and a bound the fold drops).
STORED = "v(I) :- item(I, C, V), V > 10"
VARIANT = "w(I) :- item(I, C, V), V > 10.0, V > 5"


def check_the_structural_ablation_refuses_a_variant():
    """With ``canonical=False`` a variant spelling is derived by
    subsumption, never served as a canonical hit."""
    for canonical, exact, subsumed in ((True, 1, 0), (False, 0, 1)):
        cms = make_cms(features=CMSFeatures(canonical=canonical))
        expected = sorted(cms.query(parse_query(STORED)).fetch_all())
        assert sorted(cms.query(parse_query(VARIANT)).fetch_all()) == expected
        assert cms.metrics.get(CACHE_HITS_EXACT) == exact, canonical
        assert cms.metrics.get(CACHE_HITS_CANONICAL) == exact, canonical
        assert cms.metrics.get(CACHE_HITS_SUBSUMED) == subsumed, canonical


# -- the mutants -----------------------------------------------------------------------


def _unread(monkeypatch):
    def read_exact(self, hit):
        element = hit.element  # the mutation: no ``self.cache.read``
        self.monitor.charge_local(element.rows_materialized())
        return element.relation

    monkeypatch.setattr(CacheManagementSystem, "_read_exact", read_exact)


def _structural_blind(monkeypatch):
    def exact_hit(self, query):
        if not self.features.caching or query.unsatisfiable or not query.occurrences:
            return None
        if self.features.canonical and canonicalize(query).unsatisfiable:
            return None
        element = self.cache.lookup_exact(query)
        if element is None:
            return None
        # The mutation: the ``canonical=False`` refusal is gone.
        return ExactHit(
            element, element.definition.canonical_key() != query.canonical_key()
        )

    monkeypatch.setattr(QueryPlanner, "exact_hit", exact_hit)


def _leaked_pin(monkeypatch):
    def execute(self, plan):
        self.fetch_seconds = None
        for element in plan.cache_elements():
            self.cache.pin(element)
        # The mutation: no ``finally`` releasing the pins.
        return self._dispatch(plan)

    monkeypatch.setattr(ExecutionMonitor, "execute", execute)


@pytest.mark.parametrize(
    "check, plant",
    [
        (check_an_exact_hit_is_one_read, _unread),
        (check_the_structural_ablation_refuses_a_variant, _structural_blind),
        (check_every_answer_completes_in_its_execute_step, _leaked_pin),
    ],
    ids=["unread", "structural_blind", "leaked_pin"],
)
def test_killed_by_the_hand_case(check, plant, monkeypatch):
    check()
    plant(monkeypatch)
    with pytest.raises(AssertionError):
        check()
