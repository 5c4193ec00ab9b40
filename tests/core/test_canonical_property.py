"""Property suite for the PSJ canonicalizer (hypothesis).

Three laws, each over generated conjunctive queries with joins and
mixed int/float constant spellings:

* **idempotence** — canonicalizing the normalized expression changes
  nothing (same key, same expression);
* **mutation invariance** — every output of the equivalent-query
  mutator (``repro.qa.generator.mutate_equivalent``) canonicalizes to
  the same key as its source;
* **answer preservation** — the normalized expression and every mutated
  spelling produce exactly the oracle's rows under direct evaluation.

Any counterexample hypothesis shrinks to is also written out as a
standard repro.qa repro file (``BRAID_QA_REPRO_DIR``, default
``.qa-repros``), replayable with ``python -m repro fuzz --replay``.
"""

import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caql.eval import evaluate_psj, psj_of, result_schema
from repro.caql.parser import parse_query
from repro.core.canonical import canonical_key, canonicalize, normalized
from repro.qa import write_repro
from repro.qa.generator import case_from_relations, mutate_equivalent
from repro.relational.relation import Relation

R_ROWS = [(x, y, z) for x in range(5) for y in range(5) for z in range(3)]
S_ROWS = [(z, w) for z in range(4) for w in range(3)]
DB = {
    "r": Relation(result_schema("r", 3), R_ROWS),
    "s": Relation(result_schema("s", 2), S_ROWS),
}

#: Atomic conditions with deliberately mixed constant spellings: the
#: int/float collisions (2 vs 2.0) are the canonicalizer's hard cases.
CONDITIONS = [
    f"{var} {op} {lit}"
    for var in ("X", "Y", "Z")
    for op in ("<", "=<", ">", ">=", "=", "\\=")
    for lit in (0, 2, "2.0", 4, "3.5")
]

condition_sets = st.lists(st.sampled_from(CONDITIONS), unique=True, max_size=4)
bodies = st.sampled_from(
    [
        ("r(X, Y, Z)", "q(X, Y, Z)"),
        ("r(X, Y, Z), s(Z, W)", "q(X, W)"),
        ("r(X, Y, Z), r(Y, X, Z)", "q(X, Y)"),
    ]
)
mutation_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def query_text(body_head, conditions):
    body, head = body_head
    return f"{head} :- {', '.join([body] + list(conditions))}"


def rows_of(text):
    return set(evaluate_psj(psj_of(parse_query(text)), DB.__getitem__).rows)


def save_counterexample(reason, *texts):
    """Persist the (shrunk) failing inputs as a replayable repro file."""
    directory = os.environ.get("BRAID_QA_REPRO_DIR", ".qa-repros")
    os.makedirs(directory, exist_ok=True)
    case = case_from_relations(DB, list(texts))
    path = os.path.join(directory, f"repro-canonical-{case.fingerprint()[:12]}.json")
    write_repro(path, case, reason=reason)
    return path


@settings(max_examples=100, deadline=None)
@given(bodies, condition_sets)
def test_canonicalization_is_idempotent(body_head, conditions):
    text = query_text(body_head, conditions)
    psj = psj_of(parse_query(text))
    if canonicalize(psj).unsatisfiable:
        return  # the unsat fast path has no normalized expression to re-run
    expression = normalized(psj)
    if (
        canonical_key(expression) != canonical_key(psj)
        or normalized(expression) != expression
    ):
        save_counterexample("property: canonicalization not idempotent", text)
        raise AssertionError(f"canonicalization not idempotent for {text}")


@settings(max_examples=100, deadline=None)
@given(bodies, condition_sets, mutation_seeds)
def test_mutations_preserve_the_canonical_key(body_head, conditions, seed):
    text = query_text(body_head, conditions)
    original_key = canonical_key(psj_of(parse_query(text)))
    mutated = mutate_equivalent(text, random.Random(seed))
    mutated_key = canonical_key(psj_of(parse_query(mutated)))
    if mutated_key != original_key:
        save_counterexample(
            "property: mutation changed the canonical key", text, mutated
        )
        raise AssertionError(
            f"mutation changed the canonical key:\n  {text}\n  {mutated}"
        )


@settings(max_examples=100, deadline=None)
@given(bodies, condition_sets, mutation_seeds)
def test_canonicalization_preserves_answers(body_head, conditions, seed):
    text = query_text(body_head, conditions)
    psj = psj_of(parse_query(text))
    oracle = set(evaluate_psj(psj, DB.__getitem__).rows)

    # An unsatisfiable form normalizes to the query flagged empty, which
    # evaluates to no rows: one path for both cases.
    normalized_rows = set(evaluate_psj(normalized(psj), DB.__getitem__).rows)
    if normalized_rows != oracle:
        save_counterexample("property: normalized expression diverges", text)
        raise AssertionError(f"normalized expression diverges for {text}")

    mutated = mutate_equivalent(text, random.Random(seed))
    if rows_of(mutated) != oracle:
        save_counterexample("property: mutated spelling diverges", text, mutated)
        raise AssertionError(f"mutated spelling diverges:\n  {text}\n  {mutated}")


def test_counterexamples_become_replayable_repros(tmp_path, monkeypatch):
    """The auto-save path itself: written files load and replay cleanly."""
    monkeypatch.setenv("BRAID_QA_REPRO_DIR", str(tmp_path))
    text = query_text(("r(X, Y, Z)", "q(X, Y, Z)"), ["X < 2"])
    path = save_counterexample("demo", text)
    from repro.qa import load_repro, replay

    loaded = load_repro(path)
    assert loaded.queries == [text]
    assert not replay(path).failed
