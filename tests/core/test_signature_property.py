"""The containment signature is a *necessary* condition, nothing more.

``find_relevant`` tests every candidate against its stored
:class:`~repro.caql.implication.ContainmentSignature` before it pays for
``match_element``.  A false reject never changes an answer — only a plan
and its simulated cost — so no oracle comparison can see one.  These
properties are the net:

* **signature-reject ⇒ no match** — whenever the probe rejects an element,
  ``match_element`` on that pair yields nothing;
* **index-skip ⇒ signature-reject** — every element the predicate index
  lists but the cache's pin index does not enumerate for a query is one the
  signature rejects;
* **the walk is unchanged** — ``find_relevant`` returns the same matches,
  in the same order, as the same walk with the prefilter switched off, and
  every candidate it skips or turns away matches nothing there;
* **a bound dropped column is refused** — an element occurrence every
  same-relation query occurrence bounds at a column its projection drops
  (by a condition the element does not imply) turns the element away, and
  then nothing matches.

Pairs come from the pools of ``test_subsumption_property`` and
``tests/qa/test_property_subsumption`` plus a generator that aims at the
corners the signature must not get wrong: self-joins, one constant in
several spellings (``1``/``1.0``/``True``/``'1'``), closed ``[v, v]``
ranges that pin, pins reached through equality classes, ``\\=``
exclusions and unsatisfiable queries.  The index property also draws
queries that restate their element with constants respelled, so the
signature passes and the index must enumerate across spellings.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caql.eval import psj_of, result_schema
from repro.caql.implication import ContainmentProbe
from repro.caql.parser import parse_query
from repro.core.cache import Cache
from repro.core.canonical import canonicalize
from repro.core.subsumption import find_relevant, match_element
from repro.caql.psj import column
from repro.relational.expressions import Col, Comparison, Lit
from repro.relational.relation import Relation
from tests.core.test_subsumption_property import ELEMENT_TEXTS, QUERY_TEXTS
from tests.qa.test_property_subsumption import CONDITIONS, query_text

ARITY = {"r": 2, "s": 3}
VARIABLES = ("X", "Y", "Z", "W")
#: One value in four spellings (``True`` has no CAQL spelling; see
#: ``with_booleans``), two more numbers, and a string that only looks equal.
CONSTANTS = ("1", "1.0", "'1'", "0", "2", "3")
OPERATORS = ("<", "=<", ">", ">=", "=", "\\=")

#: Hand-picked corners, usable on either side of a pair.
CORNERS = [
    "c(X, Y) :- r(X, Y), Y >= 2, Y =< 2",  # closed range pins Y
    "c(X) :- r(X, 2)",
    "c(X) :- r(X, 2.0)",
    "c(X, Y) :- r(X, Y), X = Y, Y = 3",  # X pinned through its class
    "c(X) :- r(X, 3)",
    "c(X, Y) :- r(X, Y), Y \\= 1",
    "c(X, Y) :- r(X, Y), Y > 1",
    "c(X, Y) :- r(X, Y), Y > 5, Y < 3",  # unsatisfiable
    "c(X, Y) :- r(X, Y), Y = 1, Y = 2",  # unsatisfiable
    "c(X, Z) :- r(X, Y), r(Y, Z)",
    "c(X, Z) :- r(X, Y), r(Y, Z), X = 1, Z = 2",
    "c(X, Z) :- r(1, X), r(2, Z)",
    "c(X, Y) :- r(X, Y), Y = '1'",  # type clash against numeric bounds
    "c(X, Y) :- r(X, Y), Y < 2",
    "c(A, B, C) :- s(A, B, C), s(C, B, A), B =< 1",
]


@st.composite
def generated_texts(draw):
    """``name(vars) :- atoms, comparisons`` over r/2 and s/3, one to three
    occurrences (so self-joins are common), constants in argument
    positions and in comparisons."""
    preds = draw(st.lists(st.sampled_from(sorted(ARITY)), min_size=1, max_size=3))
    term = st.one_of(st.sampled_from(VARIABLES), st.sampled_from(CONSTANTS))
    atoms, bound = [], []
    for pred in preds:
        args = [draw(term) for _ in range(ARITY[pred])]
        if not any(a in VARIABLES for a in args):
            args[0] = draw(st.sampled_from(VARIABLES))
        bound.extend(a for a in args if a in VARIABLES)
        atoms.append(f"{pred}({', '.join(args)})")
    variables = sorted(set(bound))
    comparisons = draw(
        st.lists(
            st.builds(
                lambda var, op, const: f"{var} {op} {const}",
                st.sampled_from(variables),
                st.sampled_from(OPERATORS),
                st.one_of(st.sampled_from(CONSTANTS), st.sampled_from(variables)),
            ),
            max_size=3,
        )
    )
    return f"g({', '.join(variables)}) :- {', '.join(atoms + comparisons)}"


texts = st.one_of(
    st.sampled_from(ELEMENT_TEXTS + QUERY_TEXTS + CORNERS),
    st.builds(
        query_text, st.lists(st.sampled_from(CONDITIONS), unique=True, max_size=3)
    ),
    generated_texts(),
)


def with_booleans(psj, flips):
    """Respell some ``1`` literals as ``True`` (``==``-equal, another type)."""
    flips = iter(flips)
    conditions = []
    for condition in psj.conditions:
        right = condition.right
        if isinstance(right, Lit) and right.value == 1 and next(flips, False):
            condition = Comparison(condition.left, condition.op, Lit(True))
        conditions.append(condition)
    return replace(psj, conditions=tuple(conditions))


@st.composite
def definitions(draw, name):
    psj = psj_of(parse_query(draw(texts)))
    flips = draw(st.lists(st.booleans(), max_size=4))
    return replace(with_booleans(psj, flips), name=name)


def stored(cache, psj):
    width = max(psj.arity, 1)
    return cache.store(psj, Relation(result_schema(psj.name, width)))


def unfiltered(cache, query, reports=None):
    """``find_relevant`` with the signature tests and the pin index in
    front of them switched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ContainmentProbe, "rejection", lambda self, signature: None)
        patch.setattr(ContainmentProbe, "drops_bounded", lambda self, signature: False)
        patch.setattr(ContainmentProbe, "pins", lambda self: None)
        return find_relevant(cache, query, reports)


@settings(max_examples=400, deadline=None)
@given(definitions("e"), definitions("q"))
def test_signature_reject_implies_no_match(element_psj, query):
    element = stored(Cache(), element_psj)
    probe = ContainmentProbe(query, canonicalize(query).conditions)
    if probe.rejection(element.signature) is not None:
        assert tuple(match_element(element, query)) == (), (
            f"false reject: {element_psj} | {query}"
        )


@st.composite
def narrowed(draw, name):
    """A definition whose projection keeps only some of its columns."""
    psj = draw(definitions(name))
    kept = draw(st.lists(st.sampled_from(psj.projection), unique=True)) if psj.projection else []
    return replace(psj, projection=tuple(kept))


def _literals(psj):
    return [
        (norm.left.name, norm.op, norm.right.value)
        for norm in (c.normalized() for c in psj.conditions)
        if isinstance(norm.left, Col) and isinstance(norm.right, Lit)
    ]


def bounds_a_dropped_column(element_psj, query, e_tag, relation):
    """True when every query occurrence of ``relation`` has, at a position
    element occurrence ``e_tag``'s projection drops, a column-vs-literal
    condition the element's conditions do not imply, or (where no ``=``
    literal of the element pins it) a projection entry — read off the two
    definitions directly, not off the signature."""
    if not canonicalize(query).conditions.satisfiable:
        return False  # the planner never probes one (and it implies every pin)
    guarantees = canonicalize(element_psj).conditions
    kept = {entry for entry in element_psj.projection if isinstance(entry, str)}
    pinned = {col for col, op, _value in _literals(element_psj) if op == "="}
    projected = {entry for entry in query.projection if isinstance(entry, str)}
    literal = _literals(query)
    return all(
        any(
            column(e_tag, position) not in kept
            and (
                column(occ.tag, position) in projected
                and column(e_tag, position) not in pinned
                or any(
                    col == column(occ.tag, position)
                    and not guarantees.implies_literal(column(e_tag, position), op, value)
                    for col, op, value in literal
                )
            )
            for position in range(occ.arity)
        )
        for occ in query.occurrences
        if (occ.pred, occ.arity) == relation
    )


def check_a_bound_dropped_column_is_refused(element_psj, query):
    """Completeness on the dropped columns: an element occurrence no query
    occurrence can take on that account alone turns the element away
    (``rejection`` or ``drops_bounded``), and soundness: then nothing
    matches."""
    element = stored(Cache(), element_psj)
    probe = ContainmentProbe(query, canonicalize(query).conditions)
    refused = (
        probe.rejection(element.signature) is not None
        or probe.drops_bounded(element.signature)
    )
    if refused:
        assert tuple(match_element(element, query)) == (), (
            f"false reject: {element_psj} | {query}"
        )
    if any(
        bounds_a_dropped_column(element_psj, query, occ.tag, (occ.pred, occ.arity))
        for occ in element_psj.occurrences
    ):
        assert refused, f"a bound dropped column passed: {element_psj} | {query}"


@settings(max_examples=400, deadline=None)
@given(narrowed("e"), definitions("q"))
def test_a_bound_dropped_column_is_refused(element_psj, query):
    check_a_bound_dropped_column_is_refused(element_psj, query)


#: Elements that drop a column, and queries that bound it or not.
DROPPING = [
    "c(X) :- r(X, Y)",
    "c(X) :- r(X, Y), Y > 1",
    "c(X) :- r(X, 2)",
    "c(Y) :- r(X, Y), X = 3",
    "c(A, C) :- s(A, B, C), B =< 1",
    "c(X) :- r(X, Y), r(Y, Z), Z \\= 1",
]


@pytest.mark.parametrize("element_text", DROPPING)
def test_a_bound_dropped_column_is_refused_on_the_corners(element_text):
    element_psj = psj_of(parse_query(element_text))
    for query_text in CORNERS + DROPPING:
        query = psj_of(parse_query(query_text))
        for spelling in (query, respelled(query, [True] * 4)):
            check_a_bound_dropped_column_is_refused(element_psj, spelling)


def other_spelling(value):
    """An ``==``-equal constant of another type (``1`` ↔ ``1.0``,
    ``True`` → ``1.0``), or the value itself when it has none."""
    if isinstance(value, int):
        return float(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def respelled(psj, flips):
    """``psj`` with some numeric literals in another spelling."""
    flips = iter(flips)
    conditions = []
    for condition in psj.conditions:
        right = condition.right
        if isinstance(right, Lit) and next(flips, False):
            condition = Comparison(
                condition.left, condition.op, Lit(other_spelling(right.value))
            )
        conditions.append(condition)
    return replace(psj, conditions=tuple(conditions))


@st.composite
def index_pairs(draw):
    """An element and a query: unrelated, or the element itself respelled."""
    element = draw(definitions("e"))
    if draw(st.booleans()):
        return element, draw(definitions("q"))
    flips = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    return element, replace(respelled(element, flips), name="q")


def check_index_skip_implies_signature_reject(element_psj, query):
    cache = Cache()
    element = stored(cache, element_psj)
    probe = ContainmentProbe(query, canonicalize(query).conditions)
    pins = probe.pins()
    for pred in dict.fromkeys(query.predicates()):
        enumerated = {e.element_id for e in cache.elements_for_predicate(pred, pins)}
        listed = {e.element_id for e in cache.elements_for_predicate(pred)}
        if element.element_id in listed - enumerated:
            assert probe.rejection(element.signature) is not None, (
                f"pin index skipped what the signature passes: {element_psj} | {query}"
            )


@settings(max_examples=400, deadline=None)
@given(index_pairs())
def test_index_skip_implies_signature_reject(pair):
    check_index_skip_implies_signature_reject(*pair)


@pytest.mark.parametrize("element_text", CORNERS)
def test_index_skip_implies_signature_reject_on_the_corners(element_text):
    element_psj = psj_of(parse_query(element_text))
    for query_text in CORNERS:
        query = psj_of(parse_query(query_text))
        for spelling in (query, respelled(query, [True] * 4), with_booleans(query, [True] * 4)):
            check_index_skip_implies_signature_reject(element_psj, spelling)


@settings(max_examples=150, deadline=None)
@given(st.lists(definitions("e"), min_size=1, max_size=6), definitions("q"))
def test_walk_equals_the_walk_without_the_prefilter(element_psjs, query):
    cache = Cache()
    for index, psj in enumerate(element_psjs):
        stored(cache, replace(psj, name=f"e{index}"))
    reports, plain_reports = [], []
    filtered = find_relevant(cache, query, reports)
    assert filtered == find_relevant(cache, query)
    assert filtered == unfiltered(cache, query, plain_reports)
    # The candidates the pin index enumerates, in the unfiltered visit
    # order, the same ones matched, and a signature reject only ever where
    # the full test found nothing; an index skip likewise.
    visited = {r.element_id for r in reports}
    assert [(r.element_id, r.matches) for r in reports] == [
        (r.element_id, r.matches) for r in plain_reports if r.element_id in visited
    ]
    assert not any(r.matches for r in plain_reports if r.element_id not in visited)
    assert all(len(r.rejections) == 1 for r in reports if r.prefiltered)
    assert not any(r.prefiltered for r in plain_reports)
