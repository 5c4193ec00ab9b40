"""Model test: the cache's one per-predicate index against a reference list.

``Cache`` keeps a single ``(predicate name, cache element)`` index: per
predicate, its elements filed by pin anchor (slot, then constant), beside
the predicate's unpinned ones.  With no pins, ``elements_for_predicate``
merges every bucket of the predicate back into store order by epoch; with
pins, it merges only the buckets those pins could reach.  A concatenation
of the buckets would look right whenever a predicate has one bucket, so
the operations below interleave pinned and unpinned elements, re-store
under other spellings, and retire elements every way the cache can:

* store (as a view or as an intermediate), possibly under a key already
  held — a re-store, which keeps the element as it was stored;
* re-store under an alpha-equivalent spelling (atoms and comparisons
  reversed, variables renamed, ``1``/``1.0`` respelled — a spelling whose
  anchor would sit at another slot or under another spelling of the
  constant): the element keeps its definition, and so its anchor;
* discard;
* pin, then discard (refused: the element stays live), then unpin;
* clear.

After every step, against the reference list of live elements in store
order:

* ``elements_for_predicate(pred)`` is exactly the live elements mentioning
  ``pred``, in store order;
* ``elements_for_predicate(pred, pins)`` is the subsequence of that list
  holding exactly the elements the pins cannot rule out — unanchored, or
  anchored at a pinned slot under a constant ``==`` one pinned there;
* ``check_invariants`` passes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caql.eval import psj_of, result_schema
from repro.caql.parser import parse_query
from repro.common.errors import CacheError
from repro.core.cache import Cache, key_of, pin_anchor
from repro.relational.relation import Relation
from tests.core.test_signature_property import other_spelling

#: Atoms over r/2 and s/2: a self-join, and constants in argument positions.
ATOMS = ("r(X, Y)", "s(Y, Z)", "r(Y, Z)", "r(1, Y)", "s(Y, 2.0)")
VARIABLES = ("X", "Y", "Z")
RENAMED = {"X": "P", "Y": "Q", "Z": "R"}
CONSTANTS = ("1", "1.0", "2", "'1'", "3")
RESPELLED = {"1": "1.0", "1.0": "1", "2": "2.0", "2.0": "2"}
PREDICATES = ("r", "s")


def _respell(text: str) -> str:
    """Rename the variables and respell the numeric constants of one
    atom or comparison."""
    out = []
    for token in text.replace("(", "( ").replace(",", " ,").replace(")", " )").split():
        out.append(RENAMED.get(token, RESPELLED.get(token, token)))
    return " ".join(out).replace("( ", "(").replace(" ,", ",").replace(" )", ")")


@st.composite
def spellings(draw):
    """A definition and an alpha-equivalent spelling of it."""
    atoms = draw(st.lists(st.sampled_from(ATOMS), min_size=1, max_size=3, unique=True))
    variables = [v for v in VARIABLES if any(v in atom for atom in atoms)]
    comparisons = draw(
        st.lists(
            st.builds(
                "{} {} {}".format,
                st.sampled_from(variables),
                st.sampled_from(("=", "=", ">", "=<")),
                st.sampled_from(CONSTANTS),
            ),
            max_size=3,
            unique=True,
        )
    )
    body = atoms + comparisons
    one = f"v({', '.join(variables)}) :- {', '.join(body)}"
    other = (
        f"w({', '.join(RENAMED[v] for v in variables)}) :- "
        f"{', '.join(_respell(part) for part in reversed(body))}"
    )
    return psj_of(parse_query(one)), psj_of(parse_query(other))


SLOTS = st.tuples(
    st.tuples(st.sampled_from(PREDICATES), st.just(2)), st.integers(0, 1)
)
VALUES = st.sampled_from((1, 1.0, True, 2, 2.0, "1", 3))
PINS = st.dictionaries(SLOTS, st.lists(VALUES, min_size=1, max_size=2), max_size=3)

STORE = st.tuples(st.just("store"), spellings(), st.sampled_from(("view", "intermediate")))
OPERATIONS = st.lists(
    st.one_of(
        # Stores weigh three times the rest: a bucket order only shows once
        # a predicate holds several elements.
        STORE,
        STORE,
        STORE,
        st.tuples(st.just("respell"), st.integers(0, 20)),
        st.tuples(st.just("discard"), st.integers(0, 20)),
        st.tuples(st.just("pin-discard-unpin"), st.integers(0, 20)),
        st.tuples(st.just("clear")),
    ),
    min_size=3,
    max_size=25,
)


def admitted(element, pins) -> bool:
    """True when the pins cannot rule ``element`` out."""
    anchor = pin_anchor(element.signature)
    if anchor is None:
        return True
    slot, value = anchor
    return any(v == value for v in pins.get(slot, ()))


def check(cache: Cache, live: list, drawn_pins: list) -> None:
    cache.check_invariants()
    # The pins each live element's own anchor gives, respelled too, so that
    # every pinned bucket gets asked for as well as the drawn ones.
    asked = list(drawn_pins)
    for element in live:
        anchor = pin_anchor(element.signature)
        if anchor is not None:
            slot, value = anchor
            asked += [{slot: [value]}, {slot: [other_spelling(value)]}]
    for pred in PREDICATES:
        expected = [e for e in live if pred in e.definition.predicates()]
        listed = cache.elements_for_predicate(pred)
        assert [e.element_id for e in listed] == [e.element_id for e in expected]
        for pins in asked:
            enumerated = cache.elements_for_predicate(pred, pins)
            assert [e.element_id for e in enumerated] == [
                e.element_id for e in expected if admitted(e, pins)
            ], pins


def relation_for(psj) -> Relation:
    return Relation(result_schema(psj.name, max(psj.arity, 1)))


@settings(max_examples=200, deadline=None)
@given(OPERATIONS, st.lists(PINS, max_size=3))
def test_the_one_index_follows_the_reference_list(operations, drawn_pins):
    cache = Cache()
    live: list = []  # live elements, store order
    respelling: dict[str, object] = {}  # element id -> its other spelling
    for operation in operations:
        kind = operation[0]
        if kind == "store":
            _, (psj, other), element_kind = operation
            held = next((e for e in live if key_of(e.definition) == key_of(psj)), None)
            before = None if held is None else (held.definition, held.kind)
            element = cache.store(psj, relation_for(psj), kind=element_kind)
            if held is None:
                live.append(element)
                # A head variable shared by two atoms projects whichever
                # column its spelling names first, and the canonical key
                # keeps that choice: such a pair is no respelling.
                if key_of(other) == key_of(psj):
                    respelling[element.element_id] = other
            else:
                assert element is held
                assert (element.definition, element.kind) == before
        elif kind == "respell":
            respelled = [e for e in live if e.element_id in respelling]
            if not respelled:
                continue
            element = respelled[operation[1] % len(respelled)]
            before = (element.definition, element.kind)
            other = respelling[element.element_id]
            assert cache.store(other, relation_for(other)) is element
            assert (element.definition, element.kind) == before
        elif kind == "discard":
            if not live:
                continue
            element = live.pop(operation[1] % len(live))
            cache.discard(element.element_id)
        elif kind == "pin-discard-unpin":
            if not live:
                continue
            element = live[operation[1] % len(live)]
            cache.pin(element)
            with pytest.raises(CacheError, match="pinned"):
                cache.discard(element.element_id)
            check(cache, live, drawn_pins)
            cache.unpin(element)
        else:
            cache.clear()
            live.clear()
        check(cache, live, drawn_pins)
