"""Kept match plans do the whole subsumption hit, and every per-shape table
has one bound.

* **A kept plan decides alone.** On the plain walk a candidate that keeps a
  match plan for the ask's shape skips the containment signature; only a
  candidate without one is tested by it.
* **A hit binds only constants.** A match carries its residual's generated
  kernel factory, kept by the plan per set of surviving checks, and this
  ask's literals; deriving the hit compiles nothing.
* **One bound.** The CAQL shape plans, each link's request templates, each
  element's match plans and the generated kernels are held to
  ``SHAPE_BOUND``, first in first out.
"""

from itertools import product

import repro.caql.eval as eval_module
import repro.relational.expressions as expressions
from repro.caql.eval import evaluate_psj, psj_of
from repro.caql.implication import ContainmentProbe
from repro.caql.ast import ConjunctiveQuery
from repro.caql.parser import parse_query
from repro.core.cms import CacheManagementSystem
from repro.core.subsumption import derive_full, derive_full_lazy, find_relevant
from repro.logic.terms import Atom, Const, Var
from repro.relational.expressions import SHAPE_BOUND
from repro.relational.relation import relation_from_columns
from repro.remote.server import RemoteDBMS
from tests.core.test_subsumption import DB, cache_with


def counting(monkeypatch, owner, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestKeptPlanHits:
    DRILLS = 20

    def test_a_hit_runs_no_signature_and_derives_no_shape(self, monkeypatch):
        cache, (element,) = cache_with("wide(X, Z) :- b2(X, Z)")
        drills = [
            psj_of(parse_query(f"d{n}(X) :- b2(X, Z), X >= {n % 3}, Z < {n % 4 + 1}"))
            for n in range(self.DRILLS)
        ]
        answers = [sorted(evaluate_psj(drill, DB.__getitem__)) for drill in drills]
        (first,) = find_relevant(cache, drills[0])  # builds and keeps the plan
        assert len(first.residual_conditions) == 2
        signature = counting(monkeypatch, ContainmentProbe, ("rejection", "drops_bounded"))
        compiled = counting(monkeypatch, expressions, ("_bind",))
        for drill, expected in zip(drills[1:], answers[1:]):
            (match,) = find_relevant(cache, drill)
            assert sorted(derive_full(match, drill)) == expected
            assert sorted(derive_full_lazy(match, drill)) == expected
        assert signature == {"rejection": 0, "drops_bounded": 0}
        assert compiled == {"_bind": 0}
        assert len(element.match_plans) == 1

    def test_a_candidate_without_a_kept_plan_is_still_tested(self, monkeypatch):
        cache, _ = cache_with("wide(X, Z) :- b2(X, Z)", "low(X, Z) :- b2(X, Z), X < 1")
        for n in (2, 3):  # low's signature turns both away: no plan is built
            find_relevant(cache, psj_of(parse_query(f"d(X) :- b2(X, Z), X >= {n}")))
        signature = counting(monkeypatch, ContainmentProbe, ("rejection",))
        (match,) = find_relevant(cache, psj_of(parse_query("d(X) :- b2(X, Z), X >= 3")))
        assert match.element.view_name == "wide"
        assert signature == {"rejection": 1}


class TestOneBound:
    """10⁴ distinct selection shapes over one resident four-column view:
    every table stays at or under the bound, the element's match plans
    included."""

    SHAPES = 10_000

    def test_every_per_shape_table_stays_at_its_bound(self):
        server = RemoteDBMS()
        server.load_table(
            relation_from_columns("t", a=[0, 1, 2], b=[1, 2, 3], c=[2, 3, 4], d=[3, 4, 5])
        )
        cms = CacheManagementSystem(server)
        cms.begin_session()
        cms.query(parse_query("v(A, B, C, D) :- t(A, B, C, D)")).fetch_all()
        (view,) = cms.cache.elements_for_predicate("t")
        columns = tuple(map(Var, "ABCD"))
        bound = {"<": 9, "=<": 9, ">": -1, ">=": -1, "=": 2, "\\=": 7}
        conditions = product(product(columns, bound), repeat=3)
        for n, triple in zip(range(self.SHAPES), conditions):
            query = ConjunctiveQuery(
                f"q{n}",
                columns,
                (Atom("t", columns),)
                + tuple(Atom(op, (col, Const(bound[op]))) for col, op in triple),
            )
            cms.query(query).fetch_all()
            cms.rdi._translate(psj_of(query), {})  # the link's template
        assert cms.cache.elements_for_predicate("t") == [view]
        tables = {
            "shape plans": eval_module._shapes,
            "request templates": cms.rdi._templates,
            "match plans": view.match_plans,
            "kernels": expressions._SHAPE_CACHE,
        }
        assert {name: len(table) for name, table in tables.items()} == dict.fromkeys(
            tables, SHAPE_BOUND
        )
