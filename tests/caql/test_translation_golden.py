"""Golden translations: the CAQL -> PSJ split may change hands, its output
may not.

Over the texts of the canonical golden corpus
(``tests/core/test_canonical_golden.py``: every query and advice view the
five fuzz profile configs draw) plus a handful of hand-written texts for
what the generator does not draw — a constant on the left of a
comparison, a column-column comparison whose columns arrive out of order,
and tags past ``t9``, whose names sort before ``t2`` — the
``(occurrences, conditions, projection, var_columns, unsatisfiable)`` of
each text's PSJ core hash to digests recorded **before translation
emitted its conditions normalized in one pass**.  The canonical digests
would not notice a condition order that changed (the key sorts its
conditions); these do, and so does anything else that reads
``PSJQuery.conditions`` in order (the fold's first-mention order, the
remote DML's WHERE clause).
"""

import hashlib

from repro.caql.eval import psj_of
from repro.caql.parser import parse_query
from tests.core.test_canonical_golden import corpus_texts

CORPUS_SHA256 = "312721600190dc39a75d75af8d7828e43fb390bfedac9a08f7593857181e9fee"
HAND_SHA256 = "fec74eb57893f18f94bc3dec49e716fa7be947affd6fb6c13ede5be2d325cdbe"

_CHAIN = ", ".join(f"b{i % 3}(V{i}, V{i + 1})" for i in range(12))

HAND_TEXTS = (
    "q(X) :- b0(X, Y), 3 < Y",
    "q(X) :- b0(X, Y), 3.0 >= Y, 1 =< Y",
    "q(X, Y) :- b0(X, Y), Y > X",
    "q(X, Y) :- b0(X, Z), b1(Z, Y), Y \\= X, X < Z",
    "q(X) :- b0(X, X), b1(X, c1)",
    "q(c7, X) :- b0(X, 2.5), X = 1",
    f"q(V0, V12) :- {_CHAIN}, V11 < V2, 4 > V10",
    f"q(V0) :- {_CHAIN}, b0(V12, V2), V10 = V3",
    "q(X) :- b0(X, Y), 1 < 2",
    "q(X) :- b0(X, Y), 2 < 1",
)


def _digest(texts) -> str:
    digest = hashlib.sha256()
    for text in texts:
        psj = psj_of(parse_query(text))
        digest.update(
            repr(
                (psj.occurrences, psj.conditions, psj.projection,
                 psj.var_columns, psj.unsatisfiable)
            ).encode()
        )
    return digest.hexdigest()


def test_the_corpus_translations_are_byte_for_byte_as_recorded():
    texts = corpus_texts()
    assert len(texts) >= 4000
    assert _digest(texts) == CORPUS_SHA256


def test_the_hand_translations_are_byte_for_byte_as_recorded():
    assert _digest(HAND_TEXTS) == HAND_SHA256
