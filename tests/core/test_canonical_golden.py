"""Golden canonical keys: the fold may change hands, the keys may not.

A seeded corpus of PSJ definitions — every query and advice view the five
fuzz profile configs draw, each also *crossed* with the previous
definition over the same occurrences (the generator draws no
contradiction and never bounds one column by two kinds of constant;
conjoining two definitions' conditions does both) — plus a handful of
hand-built definitions for what the generator cannot reach.  The
``(canonical key, unsatisfiable)`` pairs and the normalized expressions
hash to digests recorded **at the parent of ISSUE 23**, when the
canonicalizer still owned a private fold; a fold that renders one key
differently, or finds one contradiction more or fewer, changes them.

A third digest pins the exact tier's variant test (which respelling of a
stored definition is a canonical hit) over the same corpus, each
definition against its normalized expression and a retagged copy,
recorded while that test still rendered both structural keys every time.
"""

import hashlib
from dataclasses import replace

import repro.core.planner as planner_module
from repro.caql.eval import psj_of
from repro.caql.parser import parse_query
from repro.caql.psj import ConstProj, Occurrence, PSJQuery, parse_column
from repro.core.canonical import PERMUTATION_CAP, canonicalize, normalized
from repro.qa import CaseConfig, CaseGenerator
from repro.relational.expressions import Col, Comparison, Lit

CASES_PER_PROFILE = 150
KEYS_SHA256 = "953a3f68d0f185d3c5b8714cfeaa4388ba958e56ba55528f8c574b55c99e0f2a"
NORMALIZED_SHA256 = "9c4e224fd04b4e65514f0f4df15f2a0bcd0ba3a6bd62c186124f25a3bf579eb9"
#: The exact tier's variant test over the corpus, recorded when it was the
#: structural keys' inequality alone (before it read the query's shape
#: first).
VARIANTS_SHA256 = "b37f0d4424f793b26c08efaca1c3549669cdcb521885133ea86fe5d6b48043c3"


def _identity(query: PSJQuery) -> tuple:
    # ``repr`` keeps ``1`` and ``1.0`` apart, which ``==`` would not.
    return query.occurrences, repr(query.conditions), repr(query.projection)


def corpus_texts() -> list[str]:
    """Every query and advice view text the five profile configs draw, in
    draw order (repeats included)."""
    configs = (
        CaseConfig(),
        CaseConfig.faulty(),
        CaseConfig.federated(),
        CaseConfig.churny(),
        CaseConfig.variants(),
    )
    texts: list[str] = []
    for offset, config in enumerate(configs):
        for case in CaseGenerator(23 + offset, config).corpus(CASES_PER_PROFILE):
            texts.extend(case.queries + case.advice_views)
    return texts


def _generated() -> list[PSJQuery]:
    drawn: dict[tuple, PSJQuery] = {}
    for text in corpus_texts():
        query = psj_of(parse_query(text))
        drawn.setdefault(_identity(query), query)
    crossed: dict[tuple, PSJQuery] = {}
    latest: dict[tuple, PSJQuery] = {}
    for query in drawn.values():
        previous = latest.get(query.occurrences)
        latest[query.occurrences] = query
        if previous is not None and previous.conditions != query.conditions:
            both = replace(query, conditions=previous.conditions + query.conditions)
            if _identity(both) not in drawn:
                crossed.setdefault(_identity(both), both)
    return [*drawn.values(), *crossed.values()]


def _cmp(left, op, right) -> Comparison:
    def operand(x):
        return Col(x) if isinstance(x, str) and x[:1] == "t" and "." in x else Lit(x)

    return Comparison(operand(left), op, operand(right))


def _hand_built() -> list[PSJQuery]:
    one = (Occurrence("t0", "b0", 2),)
    two = (Occurrence("t0", "b0", 2), Occurrence("t1", "b0", 2))
    seven = tuple(Occurrence(f"t{i}", "b0", 2) for i in range(7))  # 7! > the cap
    assert 5040 > PERMUTATION_CAP

    def query(occurrences, conditions, projection=("t0.c0",)):
        return PSJQuery("h", occurrences, tuple(conditions), projection)

    chain = [_cmp(f"t{i}.c1", "=", f"t{i + 1}.c0") for i in range(6)]
    return [
        query(seven, chain + [_cmp("t3.c0", ">", 2), _cmp("t5.c1", "=", "k")]),
        query(seven, chain + [_cmp("t6.c1", "!=", 4), _cmp("t0.c0", "<=", 1.5)]),
        query(one, [_cmp("t0.c0", "=", [1, 2])]),
        query(one, [_cmp("t0.c0", "!=", [1, 2]), _cmp("t0.c0", "!=", [1, 2])]),
        query(one, [_cmp("t0.c0", ">", 5), _cmp("t0.c0", ">", "a"), _cmp("t0.c0", "<", 9)]),
        query(one, [_cmp("t0.c0", ">", "a"), _cmp("t0.c0", "<", 9), _cmp("t0.c0", ">", 5)]),
        query(one, [_cmp("t0.c0", ">", 5), _cmp("t0.c0", "!=", "a"), _cmp("t0.c0", "!=", 3)]),
        query(one, [_cmp("t0.c0", "=", "t0.c1"), _cmp("t0.c0", "<", "t0.c1")]),
        query(one, [_cmp("t0.c0", "=", "t0.c1"), _cmp("t0.c0", "<=", "t0.c1")]),
        query(two, [_cmp("t0.c0", "<", "t1.c0"), _cmp("t1.c0", ">", "t0.c0")]),
        query(two, [_cmp("t0.c1", "=", "t1.c0"), _cmp("t1.c0", ">=", 1), _cmp("t0.c1", "<=", True)]),
        query(one, [_cmp("t0.c0", ">=", 2), _cmp("t0.c0", "<=", 2.0), _cmp("t0.c0", "!=", 2)]),
        query(one, [_cmp(3, "<", "t0.c0"), _cmp("t0.c0", "<", 2**60), _cmp("t0.c0", "<", 2.0**60)]),
    ]


def _digests(definitions: list[PSJQuery]) -> tuple[str, str]:
    keys, expressions = hashlib.sha256(), hashlib.sha256()
    for definition in definitions:
        form = canonicalize(definition)
        keys.update(repr((form.key, form.unsatisfiable)).encode())
        normal = normalized(definition)
        expressions.update(
            repr(
                (normal.occurrences, normal.conditions, normal.projection,
                 normal.unsatisfiable)
            ).encode()
        )
    return keys.hexdigest(), expressions.hexdigest()


def test_the_corpus_is_as_broad_as_it_says():
    generated = _generated()
    assert len(generated) >= 4000
    forms = [canonicalize(q) for q in generated]
    assert sum(form.unsatisfiable for form in forms) >= 500
    assert sum(not form.unsatisfiable for form in forms) >= 3000

    def kinds_bounding_one_column(query):
        kinds: dict[str, set] = {}
        for condition in query.conditions:
            condition = condition.normalized()
            if isinstance(condition.right, Lit) and condition.op in ("<", "<=", ">", ">="):
                kinds.setdefault(condition.left.name, set()).add(
                    isinstance(condition.right.value, str)
                )
        return max((len(k) for k in kinds.values()), default=0)

    assert sum(kinds_bounding_one_column(q) == 2 for q in generated) >= 50


def test_keys_and_normalized_expressions_are_the_parents_byte_for_byte():
    keys, expressions = _digests(_generated() + _hand_built())
    assert keys == KEYS_SHA256
    assert expressions == NORMALIZED_SHA256


def _retagged(query: PSJQuery) -> PSJQuery:
    """``query`` with every occurrence tag moved up by one (``t0`` -> ``t1``)."""
    tags = {occ.tag: f"t{index + 1}" for index, occ in enumerate(query.occurrences)}

    def column(name: str) -> str:
        tag, position = parse_column(name)
        return f"{tags[tag]}.c{position}"

    def operand(x):
        return Col(column(x.name)) if isinstance(x, Col) else x

    return PSJQuery(
        query.name,
        tuple(Occurrence(tags[o.tag], o.pred, o.arity) for o in query.occurrences),
        tuple(Comparison(operand(c.left), c.op, operand(c.right)) for c in query.conditions),
        tuple(p if isinstance(p, ConstProj) else column(p) for p in query.projection),
        unsatisfiable=query.unsatisfiable,
    )


def _tag_free() -> list[PSJQuery]:
    """Definitions whose structural key names no tag (no condition, a
    constant-only projection): retagging one keeps it structurally
    identical."""
    one = (Occurrence("t0", "b0", 2),)
    two = (Occurrence("t0", "b0", 2), Occurrence("t1", "b1", 1))
    return [
        PSJQuery("g", one, (), (ConstProj(1),)),
        PSJQuery("g", two, (), (ConstProj("c"), ConstProj(2.0))),
        PSJQuery("g", one, (), ()),
    ]


def variants_digest() -> str:
    """Which alpha-equivalent respelling the exact tier counts as a
    canonical hit: each definition against its normalized expression and
    against a retagged copy."""
    digest = hashlib.sha256()
    for definition in _generated() + _hand_built() + _tag_free():
        for other in (normalized(definition), _retagged(definition)):
            variant = planner_module._variant_spelling(definition, other)
            digest.update(b"1" if variant else b"0")
    return digest.hexdigest()


def keys_digest() -> str:
    """The ``(canonical key, unsatisfiable)`` digest of the whole corpus."""
    return _digests(_generated() + _hand_built())[0]


def test_the_exact_tiers_variant_test_is_the_parents():
    assert variants_digest() == VARIANTS_SHA256
