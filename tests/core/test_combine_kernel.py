"""The combine kernel (:func:`repro.core.engine.combine_parts`).

One fold — classify pending conditions, join, select, project — serves
the Execution Monitor's combine stage, its degraded variant, and the
federated gather.  The properties here hold it to direct evaluation
(:mod:`repro.caql.eval`, the independent oracle) over random queries cut
into random parts by the shared part builder.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import CostProfile, SimClock
from repro.common.errors import PlanningError, SchemaError
from repro.common.metrics import Metrics
from repro.relational import operators
from repro.relational.expressions import Col, Comparison, Lit
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.caql.eval import evaluate_psj, result_schema
from repro.caql.psj import ConstProj, Occurrence, PSJQuery, column, projection_entries
from repro.core.cache import Cache
from repro.core.engine import combine_parts
from repro.core.executor import ExecutionMonitor
from repro.core.plan import label_part, sub_query

ARITIES = {"r": 2, "s": 3, "t": 1}


@st.composite
def databases(draw):
    """Small integer tables; any of them may come out empty."""
    db = {}
    for pred, arity in ARITIES.items():
        rows = draw(
            st.lists(
                st.tuples(*[st.integers(0, 3)] * arity), max_size=6, unique=True
            )
        )
        db[pred] = Relation(result_schema(pred, arity), rows)
    return db


@st.composite
def cut_queries(draw):
    """A PSJ query plus a partition of its occurrence tags into parts."""
    preds = draw(st.lists(st.sampled_from(sorted(ARITIES)), min_size=2, max_size=3))
    occurrences = tuple(
        Occurrence(f"t{i}", pred, ARITIES[pred]) for i, pred in enumerate(preds)
    )
    columns = [col for occ in occurrences for col in occ.columns()]
    conditions = []
    for _ in range(draw(st.integers(0, 4))):
        left = draw(st.sampled_from(columns))
        if draw(st.booleans()):
            right = Col(draw(st.sampled_from([c for c in columns if c != left])))
            op = draw(st.sampled_from(["=", "=", "<", "!="]))
        else:
            right = Lit(draw(st.integers(0, 3)))
            op = draw(st.sampled_from(["=", "<", ">=", "!="]))
        condition = Comparison(Col(left), op, right)
        if condition not in conditions:
            conditions.append(condition)
    projection = tuple(
        draw(
            st.lists(
                st.one_of(
                    st.sampled_from(columns), st.builds(ConstProj, st.integers(7, 9))
                ),
                max_size=4,
            )
        )
    )
    query = PSJQuery("q", occurrences, tuple(conditions), projection)
    groups = draw(st.lists(st.integers(0, 2), min_size=len(preds), max_size=len(preds)))
    partition = [
        frozenset(occ.tag for occ, g in zip(occurrences, groups) if g == group)
        for group in sorted(set(groups))
    ]
    return query, partition


def cut(query, partition, db):
    """Evaluate each part by itself (the oracle stands in for the cache
    and the backends) and label it the way plan parts are labelled.
    Returns the parts and the conditions no part could apply alone."""
    parts, pushed = [], []
    for index, tags in enumerate(partition):
        sub = sub_query(query, tags, f"q__p{index}")
        pushed.extend(sub.conditions)
        rows = evaluate_psj(sub, db.__getitem__)
        parts.append(label_part(rows, tuple(sub.projection), f"p{index}"))
    cross = [c for c in query.conditions if c not in pushed]
    return parts, cross


@settings(max_examples=150, deadline=None)
@given(databases(), cut_queries())
def test_combine_agrees_with_direct_evaluation(db, cut_query):
    query, partition = cut_query
    parts, cross = cut(query, partition, db)
    result, _touched = combine_parts(parts, cross, query)
    assert set(result) == set(evaluate_psj(query, db.__getitem__))


@settings(max_examples=150, deadline=None)
@given(databases(), cut_queries(), st.data())
def test_partial_nulls_exactly_the_missing_columns(db, cut_query, data):
    query, partition = cut_query
    parts, cross = cut(query, partition, db)
    if len(parts) < 2:
        return
    lost = data.draw(st.integers(0, len(parts) - 1))
    surviving_tags = frozenset().union(
        *(tags for index, tags in enumerate(partition) if index != lost)
    )
    survivors = parts[:lost] + parts[lost + 1:]
    arrived = {col for part in survivors for col in part.schema.attributes}

    # What is still checkable: the query over the surviving occurrences,
    # conditions entirely inside them, lost projection columns pinned None.
    prefixes = tuple(tag + "." for tag in surviving_tags)
    expected_query = PSJQuery(
        "q",
        tuple(o for o in query.occurrences if o.tag in surviving_tags),
        tuple(
            c for c in query.conditions
            if all(col.startswith(prefixes) for col in c.columns())
        ),
        tuple(
            entry if isinstance(entry, ConstProj) or entry in arrived
            else ConstProj(None)
            for entry in query.projection
        ),
    )
    expected = set(evaluate_psj(expected_query, db.__getitem__))
    result, _touched = combine_parts(survivors, cross, query, partial=True)
    assert set(result) == expected
    for row in result:
        for entry, value in zip(query.projection, row):
            if not isinstance(entry, ConstProj):
                assert (value is None) == (entry not in arrived)


class TestStrictMode:
    """Without ``partial`` a missing column is a planning bug, not data."""

    R = Relation(result_schema("r", 2), [(1, 2), (3, 4)])
    OCCS = (Occurrence("t0", "r", 2), Occurrence("t1", "r", 2))

    def part(self):
        return label_part(self.R, (column("t0", 0), column("t0", 1)), "p0")

    def test_inapplicable_condition_raises(self):
        query = PSJQuery("q", self.OCCS, (), (column("t0", 0),))
        dangling = Comparison(Col(column("t0", 1)), "=", Col(column("t1", 0)))
        with pytest.raises(SchemaError):
            combine_parts([self.part()], [dangling], query)
        result, _ = combine_parts([self.part()], [dangling], query, partial=True)
        assert list(result) == [(1,), (3,)]

    def test_partial_still_applies_what_it_can_check(self):
        query = PSJQuery("q", self.OCCS, (), (column("t0", 0),))
        dangling = Comparison(Col(column("t0", 1)), "=", Col(column("t1", 0)))
        checkable = Comparison(Col(column("t0", 0)), ">", Lit(1))
        result, _ = combine_parts(
            [self.part()], [dangling, checkable], query, partial=True
        )
        assert list(result) == [(3,)]

    def test_missing_projection_column_raises(self):
        query = PSJQuery("q", self.OCCS, (), (column("t0", 0), column("t1", 1)))
        with pytest.raises(SchemaError):
            combine_parts([self.part()], [], query)
        result, _ = combine_parts([self.part()], [], query, partial=True)
        assert list(result) == [(1, None), (3, None)]

    def test_no_parts_is_a_planning_error(self):
        query = PSJQuery("q", self.OCCS, (), ())
        with pytest.raises(PlanningError):
            combine_parts([], [], query)


def test_executor_combine_and_federated_gather_agree():
    """A spanning query's per-backend parts, evaluated directly and folded
    by the Execution Monitor's combine stage, answer what the federated
    CMS answers — one kernel, run once per spanning query."""
    from tests.federation.conftest import SPAN3, base_tables, make_federation, psj

    query = psj(SPAN3)
    federation = make_federation()
    cms = federation.cms()
    plan = cms.planner.spanning_plan(query)
    tables = base_tables()
    fetched = [
        label_part(
            evaluate_psj(part.sub_query, tables.__getitem__),
            part.columns,
            part.sub_query.name,
        )
        for part in plan.parts
    ]

    clock, profile = SimClock(), CostProfile()
    monitor = ExecutionMonitor(Cache(), None, clock, profile, Metrics())
    combined = monitor._combine(fetched, plan)
    gathered = cms.monitor.execute(plan)

    assert set(combined) == set(gathered) == set(evaluate_psj(query, tables.__getitem__))
    assert len(combined) == len(gathered)


# -- deferred products: row order and the rows never built ------------------

#: One NaN object: as a key it matches itself and no other NaN.
NAN = float("nan")
SOUP = (1, 1.0, True, "1", 2, NAN)


def reference_fold(parts, conditions, query):
    """The left-deep fold with every step built by ``operators.join`` —
    a condition is applied at the first step where all its columns have
    arrived, a cross-side equality as a key — then select and project."""
    pending = list(conditions)
    combined = parts[0]
    touched = len(combined)
    for part in parts[1:]:
        left, right = set(combined.schema.attributes), set(part.schema.attributes)
        pairs, residual = [], []
        for condition in [c for c in pending if c.columns() <= left | right]:
            pending.remove(condition)
            lhs, rhs = condition.columns() & left, condition.columns() & right
            if condition.op == "=" and condition.is_col_col() and len(lhs) == len(rhs) == 1:
                pairs.append((lhs.pop(), rhs.pop()))
            else:
                residual.append(condition)
        combined = operators.join(combined, part, pairs, "combine", residual)
        touched += len(part) + len(combined)
    if pending:
        combined = operators.select(combined, pending)
    entries = projection_entries(query.projection, combined.schema)
    schema = result_schema(query.name, query.arity)
    return operators.project_entries(combined, entries, schema), touched


@st.composite
def folds(draw):
    """Three or four parts of mixed-type rows, cross-part conditions (often
    none between the first two, so the fold defers a product, which half
    the time the third part joins on both sides), and a projection."""
    occurrences, parts = [], []
    for index in range(draw(st.integers(3, 4))):
        arity = draw(st.integers(1, 2))
        occurrence = Occurrence(f"t{index}", f"r{index}", arity)
        # Wider first parts: their product tends to outsize what joins it.
        size = 6 if index < 2 else 4
        rows = draw(st.lists(st.tuples(*[st.sampled_from(SOUP)] * arity), max_size=size))
        occurrences.append(occurrence)
        parts.append(Relation(Schema(f"p{index}", tuple(occurrence.columns())), rows))
    columns = [col for occ in occurrences for col in occ.columns()]
    conditions = []
    if draw(st.booleans()):
        # The third part bridges the first two: its join probes the product.
        last = occurrences[2].arity - 1
        conditions += [
            Comparison(Col(column("t0", 0)), "=", Col(column("t2", 0))),
            Comparison(Col(column("t1", 0)), "=", Col(column("t2", last))),
        ]
    for _ in range(draw(st.integers(0, 3))):
        left, right = draw(st.lists(st.sampled_from(columns), min_size=2, max_size=2, unique=True))
        op = draw(st.sampled_from(["=", "=", "=", "!=", "<"]))
        rhs = Lit(draw(st.sampled_from(SOUP))) if draw(st.booleans()) and op != "=" else Col(right)
        condition = Comparison(Col(left), op, rhs)
        if condition not in conditions:
            conditions.append(condition)
    projection = tuple(
        draw(st.lists(st.one_of(st.sampled_from(columns), st.just(ConstProj(7))), max_size=4))
    )
    return parts, conditions, PSJQuery("q", tuple(occurrences), tuple(conditions), projection)


@settings(max_examples=300, deadline=None)
@given(folds())
def test_combine_is_list_equal_to_the_fold_that_builds_every_product(fold):
    parts, conditions, query = fold
    result, touched = combine_parts(parts, conditions, query)
    expected, expected_touched = reference_fold(parts, conditions, query)
    assert result.schema == expected.schema
    assert result.rows == expected.rows
    assert touched == expected_touched


def unconnected_then_joined():
    """Two unconnected 200-row parts, then a 50-row part joined to both."""
    tags = ("t0", "t1", "t2")
    occurrences = tuple(Occurrence(tag, f"r{i}", 2) for i, tag in enumerate(tags))
    rows = (
        [(i, i % 7) for i in range(200)],
        [(j, j % 5) for j in range(200)],
        [(4 * k, 3 * k) for k in range(50)],
    )
    parts = [
        label_part(part_rows, tuple(occ.columns()), f"p{i}")
        for i, (occ, part_rows) in enumerate(zip(occurrences, rows))
    ]
    conditions = (
        Comparison(Col(column("t0", 0)), "=", Col(column("t2", 0))),
        Comparison(Col(column("t1", 0)), "=", Col(column("t2", 1))),
    )
    projection = (column("t0", 1), column("t1", 1), column("t2", 0))
    return parts, list(conditions), PSJQuery("q", occurrences, conditions, projection)


def check_product_is_charged_but_not_built(monkeypatch):
    parts, conditions, query = unconnected_then_joined()
    adopted = []
    adopt = Relation.from_distinct_rows.__func__

    def spy(cls, schema, rows):
        adopted.append(len(rows))
        return adopt(cls, schema, rows)

    monkeypatch.setattr(Relation, "from_distinct_rows", classmethod(spy))
    result, touched = combine_parts(parts, conditions, query)
    assert sorted(result) == sorted((4 * k % 7, 3 * k % 5, 4 * k) for k in range(50))
    # Built row by row, the 200 x 200 product was adopted as one list.
    assert adopted and max(adopted) <= max(200, len(result))
    # 200 + (200 + 40 000) + (50 + 50): the product is still charged.
    assert touched == 40_500


def test_a_product_the_next_join_keys_on_is_charged_but_not_built(monkeypatch):
    check_product_is_charged_but_not_built(monkeypatch)
