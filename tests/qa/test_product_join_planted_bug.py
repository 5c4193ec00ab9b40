"""Acceptance: planted bugs in the deferred cross product are caught, and where.

A combine step with nothing to check between its sides yields an
:class:`~repro.relational.operators.Product` instead of building the cross
product, and the next join probes it factor by factor
(``operators._probe_product``).  Two mutants, one per thing the fast path
must keep:

* ``bucket_order`` — the probe emits each first-factor row's matches in
  the order of the build side's groups, not in the second factor's own
  order.  Same rows, different order.  Killed by the order property
  (``join(Product(A, B), R)`` row-list-equal to ``join(join(A, B, []), R)``)
  and by a hand case.  The combine kernel's set-equality property
  (``test_combine_agrees_with_direct_evaluation``) runs the mutant and
  passes: it cannot see order.
* ``sum_sized`` — a product sizes itself as the sum of its factor lengths.
  The fold's ``touched``, and so the simulated combine charge, drops;
  killed by the count test's literal.

No fuzz profile reaches the path: at the seeds and sizes FINGERPRINTS.json
pins (healthy 150, faulty 50, federated 75, churny 75, variants 50 cases)
no combine step is a cross product, so the differential runner can catch
neither mutant.  The only oracle-checked traffic through it is the wall
benchmark's ``federated_join`` workload.
"""

import pytest
from hypothesis import Phase, given, settings

from repro.relational import operators
from repro.relational.operators import Product, join
from tests.core import test_combine_kernel as kernel
from tests.relational.test_product_join_property import (
    check_product_join,
    order_case,
    product_joins,
)


def bucket_order(product, right, pairs):
    """``_probe_product`` with the second factor's matches in group order."""
    width = product.left.schema.arity
    positions = product.schema.positions(tuple(attr for attr, _ in pairs))
    first = [(p, attr) for p, (_, attr) in zip(positions, pairs) if p < width]
    second = [(p - width, attr) for p, (_, attr) in zip(positions, pairs) if p >= width]
    if not first or not second:
        return None
    first_key = operators._getter([p for p, _ in first])
    second_key = operators._getter([p for p, _ in second])
    right_first = operators._key(right.schema, [attr for _, attr in first])
    right_second = operators._key(right.schema, [attr for _, attr in second])
    groups = {}
    for row in right:
        groups.setdefault(right_first(row), {}).setdefault(right_second(row), []).append(row)
    seconds = list(product.right)
    ordinals = {}
    for i, row in enumerate(seconds):
        ordinals.setdefault(second_key(row), []).append(i)

    def rows():
        for a in product.left:
            group = groups.get(first_key(a), {})
            for key, bucket in group.items():  # the mutation: no sort
                for i in ordinals.get(key, ()):
                    for r in bucket:
                        yield a + seconds[i] + r

    return rows()


def _bucket_order(monkeypatch):
    monkeypatch.setattr(operators, "_probe_product", bucket_order)


def _sum_sized(monkeypatch):
    monkeypatch.setattr(
        Product, "__len__", lambda self: len(self.left) + len(self.right)
    )


PINNED = dict(
    deadline=None,
    database=None,
    derandomize=True,
    phases=(Phase.generate, Phase.shrink),
)


class TestBucketOrder:
    def test_killed_by_the_hand_case(self, monkeypatch):
        first, second, build, pairs = order_case()
        check_product_join(first, second, build, pairs, [], None)
        _bucket_order(monkeypatch)
        out = join(Product(first, second, "ab"), build, pairs, "j")
        assert out.rows[0] == (1, 20, 1, 20, "p")  # product order starts at 10
        with pytest.raises(AssertionError):
            check_product_join(first, second, build, pairs, [], None)

    def test_killed_by_the_order_property(self, monkeypatch):
        _bucket_order(monkeypatch)

        @settings(max_examples=400, **PINNED)
        @given(product_joins())
        def order_property(case):
            check_product_join(*case)

        with pytest.raises(AssertionError):
            order_property()

    def test_the_set_equality_kernel_property_does_not_kill_it(self, monkeypatch):
        _bucket_order(monkeypatch)
        set_equality = kernel.test_combine_agrees_with_direct_evaluation.hypothesis.inner_test
        settings(max_examples=150, **PINNED)(
            given(kernel.databases(), kernel.cut_queries())(set_equality)
        )()


class TestSumSized:
    def test_killed_by_the_count_test(self, monkeypatch):
        kernel.check_product_is_charged_but_not_built(monkeypatch)
        _sum_sized(monkeypatch)
        with pytest.raises(AssertionError, match="40500"):
            kernel.check_product_is_charged_but_not_built(monkeypatch)
