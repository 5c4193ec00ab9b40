"""Tests for the stale archive: eviction order, subsumption, degradation,
its audit, and that it is not a second cache."""

import pytest

from repro.common.errors import InvariantViolation
from repro.common.metrics import REMOTE_DEGRADED_ANSWERS
from repro.relational.relation import Relation
from repro.caql.parser import parse_query
from repro.caql.eval import psj_of, result_schema
from repro.caql.implication import ContainmentProbe
from repro.core import cache as cache_module
from repro.core.cache import Cache, StaleArchive
from repro.core.cms import CacheManagementSystem
from repro.remote.faults import FaultPolicy
from repro.remote.server import RemoteDBMS
from repro.workloads.synthetic import selection_universe


def make_psj(text):
    return psj_of(parse_query(text))


def make_relation(name, rows, width=2):
    return Relation(result_schema(name, width), rows)


def archive_query(i):
    return make_psj(f"d{i}(X, Y) :- b{i}(X, Y)")


def reject_everything(self, signature):
    """A containment probe that turns every candidate away (a planted
    false reject)."""
    return signature.occurrences[0][1], None


class TestCountBoundEviction:
    def test_fifo_eviction_order(self, monkeypatch):
        monkeypatch.setattr(cache_module, "ARCHIVE_ELEMENTS", 3)
        archive = StaleArchive()
        for i in range(5):
            archive.store(archive_query(i), make_relation(f"d{i}", [(i, i)]))
        assert len(archive) == 3
        # The two oldest went first, in insertion order.
        assert archive.find_full(archive_query(0)) is None
        assert archive.find_full(archive_query(1)) is None
        for i in (2, 3, 4):
            assert archive.find_full(archive_query(i)) is not None

    def test_eviction_is_strictly_by_age_not_use(self, monkeypatch):
        monkeypatch.setattr(cache_module, "ARCHIVE_ELEMENTS", 2)
        archive = StaleArchive()
        archive.store(archive_query(0), make_relation("d0", [(0, 0)]))
        archive.store(archive_query(1), make_relation("d1", [(1, 1)]))
        # Using element 0 does not save it: the archive is insurance,
        # not a second LRU cache.
        assert archive.find_full(archive_query(0)) is not None
        archive.store(archive_query(2), make_relation("d2", [(2, 2)]))
        assert archive.find_full(archive_query(0)) is None
        assert archive.find_full(archive_query(1)) is not None

    def test_refresh_keeps_freshest_copy_without_growth(self, monkeypatch):
        monkeypatch.setattr(cache_module, "ARCHIVE_ELEMENTS", 2)
        archive = StaleArchive()
        archive.store(archive_query(0), make_relation("d0", [(0, 0)]))
        archive.store(archive_query(1), make_relation("d1", [(1, 1)]))
        archive.store(archive_query(0), make_relation("d0", [(9, 9)]))
        assert len(archive) == 2
        match = archive.find_full(archive_query(0))
        assert match.element.relation.rows == [(9, 9)]
        # The refresh did not re-enqueue element 0: element 0 is still
        # the oldest and goes first.
        archive.store(archive_query(2), make_relation("d2", [(2, 2)]))
        assert archive.find_full(archive_query(0)) is None
        assert archive.find_full(archive_query(1)) is not None


class TestSubsumingMatch:
    def test_full_match_found_for_subsumed_query(self):
        archive = StaleArchive()
        broad = make_psj("d(X, Y) :- b(X, Y)")
        archive.store(
            broad, make_relation("d", [(1, 10), (2, 20), (3, 30)])
        )
        narrow = make_psj("q(X, Y) :- b(X, Y), Y >= 20")
        match = archive.find_full(narrow)
        assert match is not None
        assert match.is_full

    def test_full_match_found_through_the_signature_prefilter(self, monkeypatch):
        from repro.core import subsumption

        archive = StaleArchive()
        for n in range(8):  # narrow copies the signature turns away
            archive.store(
                make_psj(f"n{n}(Y) :- b({n}, Y)"), make_relation(f"n{n}", [(n,)], 1)
            )
        archive.store(
            make_psj("d(X, Y) :- b(X, Y)"), make_relation("d", [(1, 10), (99, 20)])
        )
        examined = []
        real = subsumption.match_element

        def counting(element, *args, **kwargs):
            examined.append(element.view_name)
            return real(element, *args, **kwargs)

        monkeypatch.setattr(subsumption, "match_element", counting)
        match = archive.find_full(make_psj("q(Y) :- b(99, Y)"))
        assert match is not None and match.is_full
        assert match.element.view_name == "d"
        assert examined == ["d"]

    def test_audit_puts_signature_rejects_through_the_full_test(self, monkeypatch):
        archive = StaleArchive()
        archive.store(make_psj("d(X, Y) :- b(X, Y)"), make_relation("d", [(1, 10)]))
        narrow = make_psj("q(Y) :- b(1, Y)")
        assert archive.find_full(narrow, audit=True) is not None  # sound: silent
        monkeypatch.setattr(ContainmentProbe, "rejection", reject_everything)
        # Unaudited, a false reject silently costs the degraded answer.
        assert archive.find_full(narrow) is None
        with pytest.raises(InvariantViolation, match="signature rejected"):
            archive.find_full(narrow, audit=True)

    def test_refresh_leaves_the_signature_describing_the_kept_definition(self):
        archive = StaleArchive()
        archive.store(
            make_psj("d(X, Z) :- b(X, Y), c(Y, Z), X >= 3"), make_relation("d", [(3, 1)])
        )
        # The same answer under an alpha-equivalent spelling (tags swapped).
        archive.store(
            make_psj("e(X, Z) :- c(Y, Z), b(X, Y), X >= 3"), make_relation("e", [(4, 2)])
        )
        assert len(archive) == 1
        archive.check_invariants()
        match = archive.find_full(make_psj("q(X, Z) :- b(X, Y), c(Y, Z), X >= 4"))
        assert match is not None
        assert match.element.relation.rows == [(4, 2)]

    def test_partial_overlap_is_not_served(self):
        archive = StaleArchive()
        constrained = make_psj("d(X, Y) :- b(X, Y), Y >= 20")
        archive.store(constrained, make_relation("d", [(2, 20), (3, 30)]))
        # The archived copy is narrower than the ask: no full match, so
        # the archive must refuse (a degraded answer may be stale but is
        # never silently incomplete relative to its own stored copy).
        broader = make_psj("q(X, Y) :- b(X, Y)")
        assert archive.find_full(broader) is None


class TestDegradedInteraction:
    def make_cms(self, capacity_bytes=4_000_000):
        remote = RemoteDBMS()
        for table in selection_universe(rows=40, seed=5).tables:
            remote.load_table(table)
        cms = CacheManagementSystem(remote, capacity_bytes=capacity_bytes)
        cms.begin_session()
        return cms, remote

    def test_outage_answer_comes_tagged_degraded(self):
        cms, remote = self.make_cms()
        fresh = cms.query(parse_query("q(I, V) :- item(I, cat0, V)"))
        fresh_rows = sorted(fresh.fetch_all())
        assert not fresh.degraded

        remote.set_fault_policy(FaultPolicy(seed=1, transient_rate=1.0))
        # A *narrower* query during the outage: the cache itself may
        # answer it via subsumption, so force an archive path by asking
        # something only the archive's broad copy subsumes after the
        # cache loses its element.
        cms.cache.clear()
        stale = cms.query(parse_query("q2(I, V) :- item(I, cat0, V)"))
        assert sorted(stale.fetch_all()) == fresh_rows
        assert stale.degraded
        assert cms.metrics.get(REMOTE_DEGRADED_ANSWERS) == 1

    def test_archive_probe_is_audited_when_the_planner_is(self, monkeypatch):
        cms, remote = self.make_cms()
        cms.planner.audit = True
        cms.query(parse_query("q(I, V) :- item(I, cat0, V)")).fetch_all()
        remote.set_fault_policy(FaultPolicy(seed=1, transient_rate=1.0))
        cms.cache.clear()  # only the archive's copy is left to turn away
        monkeypatch.setattr(ContainmentProbe, "rejection", reject_everything)
        with pytest.raises(InvariantViolation, match="signature rejected"):
            cms.query(parse_query("q2(I, V) :- item(I, cat0, V)")).fetch_all()

    def test_archive_survives_cache_eviction(self):
        # The archive sits outside the cache's byte budget: a tiny cache
        # that evicts everything still leaves degraded service possible.
        cms, remote = self.make_cms(capacity_bytes=500)
        expected = [
            sorted(
                cms.query(
                    parse_query(f"q{i}(I, V) :- item(I, cat{i}, V)")
                ).fetch_all()
            )
            for i in range(6)
        ]
        assert cms.cache.eviction_count > 0

        remote.set_fault_policy(FaultPolicy(seed=1, transient_rate=1.0))
        cms.cache.clear()
        for i, rows in enumerate(expected):
            stream = cms.query(parse_query(f"again{i}(I, V) :- item(I, cat{i}, V)"))
            assert sorted(stream.fetch_all()) == rows
            assert stream.degraded

    def test_degraded_answers_are_not_archived(self):
        cms, remote = self.make_cms()
        cms.query(parse_query("q(I, V) :- item(I, cat0, V)")).fetch_all()
        archived_before = len(cms._archive)

        remote.set_fault_policy(FaultPolicy(seed=1, transient_rate=1.0))
        cms.cache.clear()
        stream = cms.query(parse_query("q2(I, V) :- item(I, cat0, V)"))
        stream.fetch_all()
        assert stream.degraded
        # A degraded answer must never masquerade as a fresh archive copy.
        assert len(cms._archive) == archived_before

    def test_cached_answers_are_not_degraded_during_outage(self):
        cms, remote = self.make_cms()
        query = parse_query("q(I, V) :- item(I, cat0, V)")
        cms.query(query).fetch_all()
        remote.set_fault_policy(FaultPolicy(seed=1, transient_rate=1.0))
        # The cache still holds the fresh element: an exact hit needs no
        # remote round trip, so the answer is *not* degraded.
        repeat = cms.query(parse_query("q2(I, V) :- item(I, cat0, V)"))
        repeat.fetch_all()
        assert not repeat.degraded

    def test_cms_audit_covers_the_archived_copies(self):
        # ``StaleArchive.store`` replaces an archived element's relation in
        # place, outside anything the live cache's audit sees.  The cache
        # stores the very answer the CMS archives, so the two share its
        # relation until the cache lets go of it: after that, the archived
        # copy is the archive's alone.
        cms, _remote = self.make_cms()
        text = "q(I, V) :- item(I, cat0, V)"
        cms.query(parse_query(text)).fetch_all()
        cms.check_invariants()
        cms.cache.clear()  # the archive outlives the cache's copy
        archived = cms._archive.find_full(make_psj(text)).element
        rows = archived.relation._rows
        rows[0] = rows[0][:-1] + ("a value long enough to change the recount",)
        cms.cache.check_invariants()  # the live cache holds nothing of it
        with pytest.raises(InvariantViolation, match="rows mutated in place"):
            cms.check_invariants()


class TestNotASecondCache:
    """The archive is a FIFO of copies beside the cache: no ``Cache`` of its
    own, so archiving an answer files no pin and sizes no row."""

    def test_a_cms_constructs_exactly_one_cache(self, monkeypatch):
        built = []
        real_init = Cache.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Cache, "__init__", counting)
        cms = CacheManagementSystem(RemoteDBMS())
        assert cms._archive is not None
        assert built == [cms.cache]

    def test_archiving_anchors_and_sizes_nothing(self, monkeypatch):
        anchored, sized = [], []
        real_anchor, real_size = cache_module.pin_anchor, Relation.estimated_bytes
        monkeypatch.setattr(
            cache_module, "pin_anchor", lambda s: anchored.append(s) or real_anchor(s)
        )
        monkeypatch.setattr(
            Relation, "estimated_bytes", lambda self: sized.append(self) or real_size(self)
        )
        archive = StaleArchive()
        for i in range(100):
            archive.store(make_psj(f"d{i}(Y) :- b({i}, Y)"), make_relation(f"d{i}", [(i,)], 1))
        assert anchored == [] and sized == []
        assert len(archive) == cache_module.ARCHIVE_ELEMENTS

    def test_audit_catches_a_copy_over_the_bound(self, monkeypatch):
        archive = StaleArchive()
        for i in range(3):
            archive.store(archive_query(i), make_relation(f"d{i}", [(i, i)]))
        archive.check_invariants()
        monkeypatch.setattr(cache_module, "ARCHIVE_ELEMENTS", 2)
        with pytest.raises(InvariantViolation, match="bound is 2"):
            archive.check_invariants()

    def test_audit_catches_a_copy_its_key_no_longer_reaches(self):
        archive = StaleArchive()
        archive.store(archive_query(0), make_relation("d0", [(0, 0)]))
        archive.find_full(archive_query(0)).element.definition = archive_query(1)
        with pytest.raises(InvariantViolation, match="canonical key"):
            archive.check_invariants()
