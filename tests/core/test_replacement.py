"""The replacement policy: GreedyDual over advice classes.

``repro.core.replacement`` gives every element a priority H = L + value(e)
at store, touch and annotation; the victim is the least
(class, H, sequence) among the evictable elements, and evicting it raises
the inflation L to its H.  Four parts:

* **Count test.**  N residents (10, 100, 1 000), every one reused: each
  admission that evicts one victim evaluates ``value`` at most twice.
* **Hand cases.**  Eviction raises L, so an untouched element ages out;
  a touch re-keys; equal priorities go to the lower
  sequence; an annotation re-keys; a live tracker's classes come before
  H, and a lost tracker's do not.
* **Model property.**  Random store (views and intermediates, some
  pinned at once), re-store, read, pin/unpin, annotation, generator growth,
  discard and session changes (no advice, a live tracker, a step, a lost
  one) under random features: every pick — each eviction, and one per
  step over random exempt sets — is the argmin of (class, H, sequence)
  over the evictable elements in an independent model of L, H and the
  classes, and ``check_invariants`` passes after each step.
* **LRU property.**  With a uniform value and no advice, victims come out
  in LRU order and L never moves.
"""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caql.eval import psj_of, result_schema
from repro.caql.parser import parse_query
from repro.common.errors import CacheCapacityError, CacheError
from repro.core import replacement
from repro.core.advice_manager import AdviceManager
from repro.core.cache import Cache
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.relational.generator import generator_from_rows
from repro.relational.relation import Relation
from repro.remote.server import RemoteDBMS
from tests.core.test_advice_manager import paper_advice


def make_psj(text):
    return psj_of(parse_query(text))


def one_row(psj, value=0) -> Relation:
    return Relation(result_schema(psj.name, psj.arity), [(value,) * psj.arity])


def store(cache, text, cost=0.0, kind="view"):
    psj = make_psj(text)
    return cache.store(psj, one_row(psj), derivation_seconds=cost, kind=kind)


def victim(cache, exempt=()):
    return cache._pick_victim(set(exempt))


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_an_eviction_evaluates_value_at_most_twice(monkeypatch, n):
    calls = []
    real = replacement.value

    def counting(element):
        calls.append(element.element_id)
        return real(element)

    monkeypatch.setattr(replacement, "value", counting)
    size = store(Cache(), "p(X) :- b(X, 0)").estimated_bytes()
    cache = Cache(capacity_bytes=n * size)
    for i in range(n):
        store(cache, f"v(X) :- b(X, {i})", cost=1.0 + i)
    for element in cache.elements():
        cache.read(element)  # every resident reused
    assert len(cache) == n
    for i in range(n, n + 20):
        calls.clear()
        before = cache.eviction_count
        store(cache, f"v(X) :- b(X, {i})", cost=1.0 + (i * 37) % 101)
        assert cache.eviction_count == before + 1
        assert len(calls) <= 2, calls


# -- hand cases (each ``check_*`` raises AssertionError when the policy is off) --


def check_eviction_raises_inflation():
    size = store(Cache(), "p(X) :- b(X, 0)").estimated_bytes()
    cache = Cache(capacity_bytes=2 * size)
    aging = store(cache, "a(X) :- b(X, 1)", cost=3.0)
    first = store(cache, "f(X) :- b(X, 2)", cost=2.0)
    second = store(cache, "f(X) :- b(X, 3)", cost=2.0)
    assert first.element_id not in cache  # H 2 < 3
    assert cache.replacement.inflation > 0.0  # L is first's H
    store(cache, "f(X) :- b(X, 4)", cost=2.0)
    # second's H is L + 2 > 3: the untouched element has aged out.
    assert aging.element_id not in cache and second.element_id in cache


def check_touch_re_keys():
    cache = Cache()
    older = store(cache, "a(X) :- b(X, 1)")
    newer = store(cache, "c(X) :- b(X, 2)")
    assert victim(cache) is older
    cache.touch(older)
    assert victim(cache) is newer


def check_tracker_classes():
    cms = CacheManagementSystem(RemoteDBMS())
    cms.begin_session(paper_advice())
    cms.advice_manager.observe_query("d1")  # d1 cannot recur; d2 is next
    cache = cms.cache
    helper = store(cache, "t(X) :- b(X, 1)", kind="intermediate")
    needed = store(cache, "d2(X, Y) :- b2(X, Y)")
    dead = store(cache, "d1(Y) :- b1(c1, Y)", cost=5.0)
    assert victim(cache) is dead  # never needed again, however valuable
    assert victim(cache, {dead.element_id}) is helper  # default before needed
    cms.advice_manager.observe_query("nowhere")  # the tracker is lost
    assert victim(cache) is helper and victim(cache, {helper.element_id}) is needed


class TestHandCases:
    def test_eviction_raises_inflation(self):
        check_eviction_raises_inflation()

    def test_touch_re_keys(self):
        check_touch_re_keys()

    def test_tracker_classes(self):
        check_tracker_classes()

    def test_equal_priorities_go_to_the_lower_sequence(self):
        cache = Cache()
        first = store(cache, "a(X) :- b(X, 1)", cost=1.0)
        store(cache, "c(X) :- b(X, 2)", cost=1.0)
        assert victim(cache) is first

    def test_an_annotation_re_keys(self):
        cache = Cache()
        cache.replacement.advice = AdviceManager()  # advice on, no tracker
        older = store(cache, "a(X) :- b(X, 1)")
        newer = store(cache, "c(X) :- b(X, 2)")
        assert victim(cache) is older
        cache.annotate(newer, expendable=True, advised=False)
        assert newer.expendable and victim(cache) is newer
        cache.replacement.advice = None  # advice off: every element default
        assert victim(cache) is older
        cache.check_invariants()

    def test_generators_are_ordered_too(self):
        cache = Cache()
        psj = make_psj("g(X) :- b(X, 1)")
        lazy = cache.store(psj, generator_from_rows(result_schema("g", 1), [(1,), (2,)]))
        store(cache, "c(X) :- b(X, 2)")
        assert lazy.is_generator and victim(cache) is lazy


# -- model property --------------------------------------------------------------


class Model:
    """L, each element's H and the classes, kept apart from the cache: an
    element whose recency, observed uses, weight, cost, mark, kind or view
    moved (or that was annotated) gets H = L + value at the model's L."""

    def __init__(self, cms):
        self.cms = cms
        self.inflation = 0.0
        self.priority: dict[str, float] = {}
        self.state: dict[str, tuple] = {}
        self.evicted: list[str] = []

    def value(self, element):
        if not self.cms.features.cost_replacement:
            return 0.0
        reuse = element.advice_weight + element.reuse_frequency
        return element.derivation_seconds * reuse / max(element.estimated_bytes(), 1)

    def klass(self, element):
        if not self.cms.features.advice_replacement:
            return (1, 1)
        tracker = self.cms.advice_manager.tracker
        rank = 1.0
        if element.kind == "view" and tracker is not None and not tracker.lost:
            distance = tracker.distance_to(element.view_name)
            rank = 0.0 if distance is None else 2.0 + 1.0 / distance
        return (rank, 0 if element.expendable else 1)

    def argmin(self, cache, exempt):
        keys = [
            (self.klass(e), self.priority[e.element_id], e.sequence, e.element_id)
            for e in cache.elements()
            if cache._evictable(e, exempt)
        ]
        return min(keys)[3] if keys else None

    def sync(self, cache, annotated=None):
        for element_id in self.evicted:
            self.inflation = max(self.inflation, self.priority[element_id])
        self.evicted.clear()
        live = {e.element_id: e for e in cache.elements()}
        for element_id in set(self.priority) - set(live):
            del self.priority[element_id], self.state[element_id]
        for element_id, element in live.items():
            state = (element.sequence, element.reuse_frequency, element.advice_weight,
                     element.derivation_seconds, element.expendable, element.kind,
                     element.view_name)
            if self.state.get(element_id) != state or element is annotated:
                self.state[element_id] = state
                self.priority[element_id] = self.inflation + self.value(element)


class ModelCache(Cache):
    """A cache whose every pick is checked against :class:`Model`."""

    model: Model

    def _pick_victim(self, exempt):
        picked = super()._pick_victim(exempt)
        expected = self.model.argmin(self, exempt)
        assert (picked and picked.element_id) == expected, (
            f"picked {picked and picked.element_id}, model {expected}"
        )
        if picked is not None:
            self.model.evicted.append(picked.element_id)
        return picked


NAMES = ("d1", "d2", "d3", "u")
#: Zero costs tie H at L; equal sizes tie equal costs.
COSTS = st.sampled_from((0.0, 1.0, 2.0, 3.0))
#: An element by position, modulo how many are live.
PICK = st.integers(0, 30)
SESSION = st.tuples(st.just("session"), st.sampled_from(("none", "live", "lost", "d1", "d2")))
STORE = st.tuples(st.just("store"), st.sampled_from(NAMES), COSTS, st.integers(1, 2),
                  st.sampled_from(("view", "intermediate")))
OPERATIONS = st.lists(
    st.one_of(
        STORE,
        STORE,
        # An intermediate pinned at once: not evictable until it is unpinned.
        st.tuples(st.just("derive"), COSTS),
        st.tuples(st.just("generator"), COSTS, st.integers(1, 2)),
        st.tuples(st.just("restore"), PICK, COSTS),
        st.tuples(st.just("grow"), PICK),
        st.tuples(st.just("read"), PICK),
        st.tuples(st.just("pin"), PICK),
        st.tuples(st.just("unpin"), PICK),
        st.tuples(st.just("annotate"), PICK, st.booleans(), st.booleans()),
        st.tuples(st.just("discard"), PICK),
        SESSION,
        SESSION,
    ),
    min_size=10,
    max_size=40,
)
#: Elements (by position, modulo how many are live) exempt from one pick.
EXEMPT = st.lists(PICK, max_size=3)
FEATURES = st.tuples(st.booleans(), st.booleans())


@settings(max_examples=200, deadline=None)
@given(OPERATIONS, EXEMPT, FEATURES)
def test_every_pick_is_the_model_argmin(operations, exempt_picks, features):
    cost_based, advised = features
    cms = CacheManagementSystem(
        RemoteDBMS(),
        cache=ModelCache(300),
        features=CMSFeatures(cost_replacement=cost_based, advice_replacement=advised),
    )
    cache, model = cms.cache, Model(cms)
    cache.model = model
    cms.begin_session(None)
    pins: list = []
    stored = 0
    for operation in operations:
        kind = operation[0]
        live = cache.elements()
        chosen = live[operation[1] % len(live)] if live and kind in (
            "restore", "grow", "read", "pin", "annotate", "discard"
        ) else None
        annotated = None
        if kind in ("store", "generator"):
            if kind == "store":
                _, name, cost, rows, element_kind = operation
            else:
                name, cost, rows, element_kind = "g", operation[1], operation[2], "view"
            stored += 1
            psj = make_psj(f"{name}(X) :- b(X, {stored})")
            schema = result_schema(psj.name, 1)
            if kind == "generator":
                relation = generator_from_rows(schema, [(i,) for i in range(8)])
                list(islice(relation, rows))
            else:
                relation = Relation(schema, [(i,) for i in range(rows)])
            try:
                cache.store(psj, relation, derivation_seconds=cost, kind=element_kind)
            except CacheCapacityError:
                pass
        elif kind == "session":
            if operation[1] == "none":
                cms.begin_session(None)
            elif operation[1] in ("d1", "d2"):
                cms.advice_manager.observe_query(operation[1])
            else:
                cms.begin_session(paper_advice())
                if operation[1] == "lost":
                    cms.advice_manager.observe_query("nowhere")
        elif kind == "unpin":
            if pins:
                cache.unpin(pins.pop(operation[1] % len(pins)))
        elif kind == "derive":
            stored += 1
            try:
                child = store(cache, f"t(X) :- b(X, {stored})", cost=operation[1],
                              kind="intermediate")
            except CacheCapacityError:
                pass
            else:
                cache.pin(child)
                pins.append(child)
        elif chosen is None:
            continue
        elif kind == "restore":  # the same definition, stored again
            cache.store(chosen.definition, chosen.relation, derivation_seconds=operation[2])
        elif kind == "grow":
            if chosen.is_generator:
                list(islice(chosen.relation, chosen.rows_materialized() + 1))
        elif kind == "read":
            cache.read(chosen)
        elif kind == "pin":
            cache.pin(chosen)
            pins.append(chosen)
        elif kind == "annotate":
            cache.annotate(chosen, expendable=operation[2], advised=operation[3])
            annotated = chosen
        elif chosen.pinned:
            with pytest.raises(CacheError, match="pinned"):
                cache.discard(chosen.element_id)
        else:
            cache.discard(chosen.element_id)
        model.sync(cache, annotated)
        filed = {i: entry[0] for i, entry in cache.replacement._entries.items()}
        assert filed == model.priority
        cache.check_invariants()
        live = cache.elements()
        if live:
            exempt = {live[i % len(live)].element_id for i in exempt_picks}
            picked = Cache._pick_victim(cache, exempt)
            assert (picked and picked.element_id) == model.argmin(cache, exempt)


# -- LRU property ----------------------------------------------------------------


class LRUCache(Cache):
    """A cache whose every pick must be the least recently used evictable
    element."""

    def _pick_victim(self, exempt):
        picked = super()._pick_victim(exempt)
        evictable = [e for e in self.elements() if self._evictable(e, exempt)]
        expected = min(evictable, key=lambda e: e.sequence, default=None)
        assert picked is expected
        return picked


LRU_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("store"), COSTS, st.integers(1, 3)),
        st.tuples(st.just("restore"), PICK),
        st.tuples(st.just("read"), PICK),
        st.tuples(st.just("pin"), PICK),
        st.tuples(st.just("annotate"), PICK, st.booleans()),
    ),
    min_size=5,
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(LRU_OPERATIONS)
def test_a_uniform_value_evicts_in_lru_order(operations):
    cms = CacheManagementSystem(
        RemoteDBMS(),
        cache=LRUCache(500),
        features=CMSFeatures(cost_replacement=False, advice_replacement=False),
    )
    cms.begin_session(paper_advice())
    cache = cms.cache
    for serial, (kind, *args) in enumerate(operations):
        live = cache.elements()
        if kind == "store":
            psj = make_psj(f"d1(X) :- b(X, {serial})")
            relation = Relation(result_schema("d1", 1), [(i,) for i in range(args[1])])
            try:
                cache.store(psj, relation, derivation_seconds=args[0])
            except CacheCapacityError:
                pass
        elif not live:
            continue
        else:
            chosen = live[args[0] % len(live)]
            if kind == "restore":
                cache.store(chosen.definition, chosen.relation)
            elif kind == "read":
                cache.read(chosen)
            elif kind == "pin":
                cache.pin(chosen)
            else:
                cache.annotate(chosen, expendable=args[1], advised=not args[1])
        assert cache.replacement.inflation == 0.0
    cache.check_invariants()
