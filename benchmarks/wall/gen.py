"""Seeded inputs: base tables, query shapes, equivalent respellings, op streams.

The benchmark owns its inputs.  Nothing here imports ``repro``: tables are
plain row lists and queries are CAQL text, so a later edit to
``repro.workloads`` or ``repro.qa`` cannot silently change the traffic, and
the same ``--seed`` always yields the same bytes (``Inputs.table_digest``,
``Inputs.stream_digest``).

``--seed`` decides both the database and the questions asked of it: the
tables come from ``Random(seed)`` and the questions from ``_dealer(seed)``,
so the hold-out seed submits different query text and a change overfitted
to one stream shows.  Generators are *stratified* wherever the system's
cost depends on a drawn quantity (category sizes, value density, range
widths, the kind of query at each Zipf rank, the operation mix): every
value of a deck is used equally often, only the order and the pairing are
drawn.  A seed changes what is asked, not how much work the stream holds.

On the four retail workloads the seed deals everything: shapes, range
positions, Zipf ranks, respellings.  ``federated_join`` and ``ie_session``
are too small for that (about a hundred and three hundred ops a pass, each
costing 0.2 to 90 ms depending on which earlier answer the cache still
holds): dealt freely, the work itself moves from seed to seed, tuples
processed per op by 20 % and 11 % (quartile distance over ten seeds) and
``op_ms_p50`` by as much or more, which is the sampling error of a median,
not a property of the program.  There the seed fills the tables and respells
the questions without restructuring them (the people's names; one common
offset on every weight and cost threshold), and a fixed RNG (``_DESIGN``)
deals kinds, constants and order: the query text differs from seed to seed,
the containment structure the cache sees does not.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

#: The seed every committed number was measured with, and the hold-out
#: seed a claimed gain must also hold on (choosing-metrics guide, §6.3).
DEFAULT_SEED = 1991
HOLDOUT_SEED = 4242

CATEGORIES = 10
VALUE_DOMAIN = 1000

#: Seed of the RNG that deals the structure of the two small streams (see
#: the module docstring).  Not a parameter: changing it changes the workload.
_DESIGN = 1991


def _dealer(seed: int) -> random.Random:
    """The RNG that deals a stream's questions; independent of the one
    that fills the tables, so editing one generator leaves the other's
    draws alone."""
    return random.Random(f"{seed}:deal")


@dataclass(frozen=True)
class Table:
    """One base table: what the remote DBMS is loaded with."""

    name: str
    attributes: tuple[str, ...]
    rows: tuple[tuple, ...]
    key: tuple[str, ...] = ()


@dataclass(frozen=True)
class Op:
    """One operation of a stream.

    ``text`` is a CAQL query (an AI goal on ``ie_session``); ``answer``
    indexes ``Inputs.distinct`` — the query whose oracle answer this op
    must return (respelled variants share their base shape's entry).
    """

    text: str
    answer: int


@dataclass(frozen=True)
class Inputs:
    """Everything one workload run consumes."""

    tables: tuple[Table, ...]
    #: Issued once during set-up (cache warm-up); not timed.
    warm: tuple[Op, ...]
    #: The timed stream, in submission order.
    ops: tuple[Op, ...]
    #: One representative text per distinct answer (oracle input).
    distinct: tuple[str, ...]

    @property
    def table_digest(self) -> str:
        """SHA-256 over the base tables: the identity of the database."""
        sha = hashlib.sha256()
        for table in self.tables:
            sha.update(repr((table.name, table.attributes, table.rows)).encode())
        return sha.hexdigest()

    @property
    def stream_digest(self) -> str:
        """SHA-256 over the warm-up and timed op texts: the identity of the
        traffic, whatever database it is asked of."""
        sha = hashlib.sha256()
        for op in self.warm + self.ops:
            sha.update(f"{op.text}|{op.answer}\n".encode())
        return sha.hexdigest()


class _Distinct:
    """Interns query texts into answer ids, in first-seen order."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}

    def op(self, text: str) -> Op:
        return Op(text, self._ids.setdefault(text, len(self._ids)))

    def texts(self) -> tuple[str, ...]:
        return tuple(self._ids)


def _dealt(rng: random.Random, values: Sequence, n: int) -> list:
    """``n`` draws that use every value equally often, in random order."""
    deck = [values[i % len(values)] for i in range(n)]
    rng.shuffle(deck)
    return deck


# -- retail data: item(id, cat, val) + ord(item_id, qty) ---------------------------


def retail_tables(rng: random.Random, items: int = 5000) -> tuple[Table, Table]:
    """``item`` with exactly ``items / 10`` rows per category whose values
    step evenly through the domain (any range of width ``w`` in one
    category holds ``w / 2`` rows, give or take one), and ``ord`` with
    exactly two orders per item."""
    per_category = items // CATEGORIES
    step = VALUE_DOMAIN // per_category
    ids = list(range(items))
    rng.shuffle(ids)
    rows = [()] * items
    for position, item in enumerate(ids):
        cat, rank = divmod(position, per_category)
        rows[item] = (item, f"cat{cat}", rank * step + rng.randrange(step))
    ord_rows = tuple(
        (i, qty) for i in range(items) for qty in sorted(rng.sample(range(1, 10), 2))
    )
    return (
        Table("item", ("item_id", "cat", "val"), tuple(rows)),
        Table("ord", ("item_id", "qty"), ord_rows),
    )


@dataclass(frozen=True)
class Shape:
    """A range selection over one category, optionally joined to ``ord``."""

    cat: int
    lo: int
    hi: int
    join: bool

    def text(self, name: str) -> str:
        if self.join:
            return (
                f"{name}(I, Q) :- item(I, cat{self.cat}, V), ord(I, Q), "
                f"V >= {self.lo}, V < {self.hi}"
            )
        return f"{name}(I, V) :- item(I, cat{self.cat}, V), V >= {self.lo}, V < {self.hi}"


def _shapes(
    rng: random.Random, count: int, widths: tuple[int, int], join_every: int
) -> list[Shape]:
    """``count`` distinct shapes; every ``join_every``-th is a join, and
    categories and widths are dealt evenly (the same multiset of result
    sizes for every seed)."""
    cats = _dealt(rng, range(CATEGORIES), count)
    spans = _dealt(rng, range(*widths), count)
    seen: set[Shape] = set()
    shapes: list[Shape] = []
    for index in range(count):
        while True:
            lo = rng.randrange(VALUE_DOMAIN - spans[index])
            shape = Shape(
                cats[index], lo, lo + spans[index], index % join_every == join_every - 1
            )
            if shape not in seen:
                break
        seen.add(shape)
        shapes.append(shape)
    return shapes


def _number(rng: random.Random, value: int) -> str:
    """``300`` or its ``==``-equal float spelling ``300.0``."""
    return f"{value}.0" if rng.random() < 0.5 else str(value)


def respell(shape: Shape, name: str, rng: random.Random, serial: int) -> str:
    """A fresh spelling of ``shape`` with the same answers.

    Renamed variables, respelled numeric constants, one redundant looser
    upper bound whose constant is unique to ``serial`` (so no two ops of a
    stream share a canonicalizer memo row), and comparison conjuncts dealt
    into random body positions.  Relation literals keep their order: the
    projection takes its output spelling from the first binding literal.
    """
    item_var, val_var, qty_var = (
        f"{letter}{rng.randrange(100)}" for letter in rng.sample("ABCDEFGHJK", 3)
    )
    body = [f"item({item_var}, cat{shape.cat}, {val_var})"]
    if shape.join:
        body.append(f"ord({item_var}, {qty_var})")
    comparisons = [
        f"{val_var} >= {_number(rng, shape.lo)}",
        f"{val_var} < {_number(rng, shape.hi)}",
        f"{val_var} {rng.choice(('<', '=<'))} {_number(rng, VALUE_DOMAIN + 1 + serial)}",
    ]
    rng.shuffle(comparisons)
    for comparison in comparisons:
        body.insert(rng.randrange(len(body) + 1), comparison)
    answer = qty_var if shape.join else val_var
    return f"{name}({item_var}, {answer}) :- {', '.join(body)}"


def zipf_indices(rng: random.Random, pool: int, count: int) -> list[int]:
    """``count`` Zipf(1) draws over ranks ``0..pool-1``."""
    cumulative = list(accumulate(1.0 / (rank + 1) for rank in range(pool)))
    total = cumulative[-1]
    return [bisect_left(cumulative, rng.random() * total) for _ in range(count)]


def _pool_inputs(seed: int, pool: int, ops: int, variants: bool) -> Inputs:
    tables = retail_tables(random.Random(seed))
    deal = _dealer(seed)
    shapes = _shapes(deal, pool, widths=(50, 51), join_every=3)
    base = tuple(Op(shape.text(f"q{i}"), i) for i, shape in enumerate(shapes))
    ranks = zipf_indices(deal, pool, ops)
    if variants:
        stream = tuple(
            Op(respell(shapes[i], f"r{k}", deal, k), i) for k, i in enumerate(ranks)
        )
    else:
        stream = tuple(base[i] for i in ranks)
    return Inputs(tables, base, stream, tuple(op.text for op in base))


def hot_repeat(seed: int, pool: int, ops: int) -> Inputs:
    """Zipf re-asks of one warmed pool, byte-identical texts."""
    return _pool_inputs(seed, pool, ops, variants=False)


def variant_respell(seed: int, pool: int, ops: int) -> Inputs:
    """The same pool and the same Zipf ranks, every op freshly respelled."""
    return _pool_inputs(seed, pool, ops, variants=True)


def drill_subsume(seed: int, ops: int) -> Inputs:
    """Per-category wide views, then never-repeating narrow drills."""
    tables = retail_tables(random.Random(seed))
    distinct = _Distinct()
    warm = []
    for cat in range(CATEGORIES):
        warm.append(distinct.op(f"v{cat}(I, V) :- item(I, cat{cat}, V)"))
        warm.append(distinct.op(f"w{cat}(I, V, Q) :- item(I, cat{cat}, V), ord(I, Q)"))
    shapes = _shapes(_dealer(seed), ops, widths=(10, 50), join_every=2)
    stream = tuple(distinct.op(s.text(f"d{i}")) for i, s in enumerate(shapes))
    return Inputs(tables, tuple(warm), stream, distinct.texts())


def churn_scan(seed: int, ops: int, fill: int = 70) -> Inputs:
    """Never-repeating wide selections and joins against a tiny cache;
    the first ``fill`` fill it during set-up so the timed stream runs in
    the steady eviction regime."""
    tables = retail_tables(random.Random(seed))
    distinct = _Distinct()
    shapes = _shapes(_dealer(seed), fill + ops, widths=(100, 300), join_every=3)
    stream = tuple(distinct.op(s.text(f"s{i}")) for i, s in enumerate(shapes))
    return Inputs(tables, stream[:fill], stream[fill:], distinct.texts())


# -- suppliers/parts/shipments over three backends ------------------------------------

COLORS = ("red", "green", "blue", "black")
CITIES = ("athens", "paris", "london", "oslo", "rome")


def supplier_tables(
    rng: random.Random, suppliers: int = 300, parts: int = 400, shipments: int = 6000
) -> tuple[Table, Table, Table]:
    """(city, rating) and (color, weight) are dealt as *pairs*, so every
    seed has the same number of suppliers in any city at any rating and of
    parts of any color at any weight; costs and quantities are dealt too.
    Only who ships what to whom is drawn freely."""
    places = _dealt(rng, [(c, r) for c in CITIES for r in range(1, 11)], suppliers)
    kinds = _dealt(rng, [(c, w) for c in COLORS for w in range(1, 81)], parts)
    supplier_rows = tuple((f"s{i}", f"supplier_{i}", *places[i]) for i in range(suppliers))
    part_rows = tuple((f"part{i}", f"part_{i}", *kinds[i]) for i in range(parts))
    pairs = rng.sample(range(suppliers * parts), shipments)
    costs = _dealt(rng, range(1, 51), shipments)
    quantities = _dealt(rng, [0, 10, 50, 100, 500, 1000], shipments)
    shipment_rows = tuple(
        (f"s{pair // parts}", f"part{pair % parts}", quantities[k], costs[k])
        for k, pair in enumerate(pairs)
    )
    return (
        Table("supplier", ("s_id", "s_name", "city", "rating"), supplier_rows, ("s_id",)),
        Table("part", ("p_id", "p_name", "color", "weight"), part_rows, ("p_id",)),
        Table("shipment", ("s_id", "p_id", "qty", "cost"), shipment_rows),
    )


def federated_join(seed: int, ops: int) -> Inputs:
    """One-, two- and three-backend spanning queries (2 : 6 : 2, so the
    median op is a two-backend join and p95 a three-backend one).  Kinds,
    constants and order are dealt by the fixed design RNG; the seed shifts
    every weight and every cost threshold by one common offset each (which
    keeps their order, so what contains what, and moves a selectivity by
    at most 4 %) and fills the tables.  Cities and colors are not permuted:
    doing so splits the seeds into two classes 19 % of tuples processed
    apart, because some choice downstream follows their spelling."""
    tables = supplier_tables(random.Random(seed))
    shift = _dealer(seed)
    weight_shift, cost_shift = shift.randrange(-2, 3), shift.randrange(-2, 3)
    deal = random.Random(_DESIGN)
    distinct = _Distinct()
    kinds = _dealt(deal, [0, 1, 2, 2, 2, 3, 3, 3, 4, 4], ops)
    ratings = _dealt(deal, range(3, 9), ops)
    weights = _dealt(deal, [w + weight_shift for w in range(20, 61, 5)], ops)
    costs = _dealt(deal, [c + cost_shift for c in range(10, 41, 5)], ops)
    cities = _dealt(deal, CITIES, ops)
    colors = _dealt(deal, COLORS, ops)
    stream = []
    for kind, rating, weight, cost, city, color in zip(
        kinds, ratings, weights, costs, cities, colors
    ):
        text = (
            f"sup(S, C) :- supplier(S, N, C, R), R >= {rating}",  # alpha
            f"prt(P, W) :- part(P, PN, {color}, W), W > {weight}",  # beta
            f"goods(S, P, Q) :- supplier(S, N, {city}, R), R >= {rating}, "  # alpha+gamma
            f"shipment(S, P, Q, Co), Co < {cost}",
            f"heavy(S, P) :- shipment(S, P, Q, C), part(P, PN, {color}, W), "  # gamma+beta
            f"W > {weight}, C < {cost}",
            f"triple(S, P) :- supplier(S, N, C, R), R >= {rating}, "  # all three
            f"shipment(S, P, Q, Co), part(P, PN, {color}, W), W > {weight}",
        )[kind]
        stream.append(distinct.op(text))
    return Inputs(tables, (), tuple(stream), distinct.texts())


# -- genealogy for the inference engine -------------------------------------------------

GENEALOGY_RULES = """
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
sibling(X, Y) :- parent(P, X), parent(P, Y), X \\= Y.
grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
uncle(U, N) :- sibling(U, P), parent(P, N), male(U).
cousin(X, Y) :- parent(P, X), parent(Q, Y), sibling(P, Q).
adult(X) :- age(X, A), A >= 18.
minor(X) :- age(X, A), A < 18.
elder(X) :- age(X, A), A >= 65.
"""

GENEALOGY_DATABASE = (("parent", 2), ("male", 1), ("female", 1), ("age", 2))

#: Children per parent, cycled within every generation: every seed grows
#: the same forest (3 roots x 6 generations, 122 people); a seed changes
#: who is male, how old, and who is asked about.
_CHILDREN = (2, 2, 1, 2, 2, 1, 3)


def genealogy_tables(
    rng: random.Random, roots: int = 3, generations: int = 6
) -> tuple[tuple[Table, ...], list[list[str]]]:
    """The family tables plus the people of each generation."""
    names = [f"p{i}" for i in range(1000)]
    rng.shuffle(names)
    fresh = iter(names)
    members = [[next(fresh) for _ in range(roots)]]
    parent_rows = []
    for _generation in range(1, generations):
        current = []
        for position, parent in enumerate(members[-1]):
            for _ in range(_CHILDREN[position % len(_CHILDREN)]):
                child = next(fresh)
                parent_rows.append((parent, child))
                current.append(child)
        members.append(current)
    people = [person for generation in members for person in generation]
    sexes = _dealt(rng, ["m", "f"], len(people))
    ages = tuple(
        (person, 25 * (generations - depth) + rng.randint(-5, 5))
        for depth, generation in enumerate(members)
        for person in generation
    )
    tables = (
        Table("parent", ("par", "child"), tuple(parent_rows)),
        Table("male", ("person",), tuple((p,) for p, s in zip(people, sexes) if s == "m")),
        Table("female", ("person",), tuple((p,) for p, s in zip(people, sexes) if s == "f")),
        Table("age", ("person", "years"), ages),
    )
    return tables, members


def ie_session(seed: int, ops: int) -> Inputs:
    """AI queries: six goal kinds, each about the person at a (generation,
    position) of the forest dealt by the fixed design RNG; the seed names
    the people and decides their sex and age."""
    tables, members = genealogy_tables(random.Random(seed))
    deal = random.Random(_DESIGN)
    distinct = _Distinct()
    kinds = _dealt(deal, range(6), ops)
    depths = _dealt(deal, range(len(members)), ops)
    scans = _dealt(deal, ["adult", "minor", "elder"], ops)
    stream = []
    for kind, depth, scan in zip(kinds, depths, scans):
        person = members[depth][deal.randrange(len(members[depth]))]
        goal = (
            f"ancestor({person}, W)",
            f"grandparent({person}, W)",
            f"sibling({person}, S)",
            f"uncle(U, {person})",
            f"cousin({person}, Y)",
            f"{scan}(X)",
        )[kind]
        stream.append(distinct.op(goal))
    return Inputs(tables, (), tuple(stream), distinct.texts())
