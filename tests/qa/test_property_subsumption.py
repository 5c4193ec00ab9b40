"""Order-theoretic properties of subsumption over generated PSJ expressions.

Subsumption ("element derives query") is a preorder induced by condition
implication; these hypothesis suites check the laws that make the cache
sound — and any counterexample hypothesis shrinks to is ALSO written out
as a standard repro.qa repro file (``BRAID_QA_REPRO_DIR``, default
``.qa-repros``), replayable with ``python -m repro fuzz --replay``.

* **reflexivity** — every expression fully subsumes itself, and deriving
  it from itself reproduces the oracle rows exactly;
* **transitivity** — conditions generated as literal subset chains
  C1 ⊆ C2 ⊆ C3 must full-match at every hop, including the transitive
  one (on this fragment the bounds engine is complete, so a miss is a
  bug, not incompleteness);
* **antisymmetry up to equivalence** — whenever the engine claims mutual
  full subsumption between two expressions, their extensions are equal
  (a soundness property: mutual derivation of different row sets would
  mean one direction manufactured or lost rows).
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caql.eval import evaluate_psj, psj_of, result_schema
from repro.caql.parser import parse_query
from repro.core.cache import Cache
from repro.core.subsumption import derive_full, match_element
from repro.qa import write_repro
from repro.qa.generator import case_from_relations
from repro.relational.relation import Relation

R_ROWS = [(x, y, z) for x in range(5) for y in range(5) for z in range(3)]
DB = {"r": Relation(result_schema("r", 3), R_ROWS)}

#: Atomic conditions over the single occurrence's variables — the bounds
#: fragment (column op int-literal) the implication engine decides fully.
CONDITIONS = [
    f"{var} {op} {lit}"
    for var in ("X", "Y", "Z")
    for op in ("<", "=<", ">", ">=", "=")
    for lit in (0, 2, 4)
]

condition_sets = st.lists(st.sampled_from(CONDITIONS), unique=True, max_size=3)


def query_text(conditions, name="q"):
    body = ", ".join(["r(X, Y, Z)"] + list(conditions))
    return f"{name}(X, Y, Z) :- {body}"


def element_for(text):
    cache = Cache()
    psj = psj_of(parse_query(text))
    return psj, cache.store(psj, evaluate_psj(psj, DB.__getitem__))


def full_matches(element, query_psj):
    return [m for m in match_element(element, query_psj) if m.is_full]


def save_counterexample(reason, *texts):
    """Persist the (shrunk) failing inputs as a replayable repro file."""
    directory = os.environ.get("BRAID_QA_REPRO_DIR", ".qa-repros")
    os.makedirs(directory, exist_ok=True)
    case = case_from_relations(DB, list(texts))
    path = os.path.join(directory, f"repro-property-{case.fingerprint()[:12]}.json")
    write_repro(path, case, reason=reason)
    return path


@settings(max_examples=80, deadline=None)
@given(condition_sets)
def test_reflexivity(conditions):
    text = query_text(conditions)
    psj, element = element_for(text)
    matches = full_matches(element, psj)
    if not matches:
        save_counterexample("property: reflexivity (no full self-match)", text)
        raise AssertionError(f"no full self-match for {text}")
    derived = {set(derive_full(m, psj).rows) == set(element.relation.rows)
               for m in matches}
    if derived != {True}:
        save_counterexample("property: reflexivity (self-derivation differs)", text)
        raise AssertionError(f"self-derivation differs from extension for {text}")


@settings(max_examples=80, deadline=None)
@given(condition_sets, condition_sets, condition_sets)
def test_transitivity_on_subset_chains(base, extra1, extra2):
    # Build a literal chain C1 ⊆ C2 ⊆ C3: each query is at least as
    # restrictive as the previous, so subsumption must hold at every hop.
    c1 = list(base)
    c2 = c1 + [c for c in extra1 if c not in c1]
    c3 = c2 + [c for c in extra2 if c not in c2]
    loose = query_text(c1, "e1")
    middle = query_text(c2, "e2")
    tight = query_text(c3, "e3")

    _, loose_element = element_for(loose)
    _, middle_element = element_for(middle)
    middle_psj = psj_of(parse_query(middle))
    tight_psj = psj_of(parse_query(tight))

    hops = {
        "loose derives middle": full_matches(loose_element, middle_psj),
        "middle derives tight": full_matches(middle_element, tight_psj),
        "loose derives tight (transitive)": full_matches(loose_element, tight_psj),
    }
    for hop, matches in hops.items():
        if not matches:
            save_counterexample(
                f"property: transitivity ({hop} failed)", loose, middle, tight
            )
            raise AssertionError(f"{hop} failed: {loose} | {middle} | {tight}")

    # And the transitive derivation must agree with the oracle.
    oracle = set(evaluate_psj(tight_psj, DB.__getitem__).rows)
    for match in hops["loose derives tight (transitive)"]:
        derived = set(derive_full(match, tight_psj).rows)
        if derived != oracle:
            save_counterexample(
                "property: transitivity (transitive derivation diverges)",
                loose, middle, tight,
            )
            raise AssertionError(f"bad transitive derivation: {loose} -> {tight}")


@settings(max_examples=80, deadline=None)
@given(condition_sets, condition_sets)
def test_antisymmetry_up_to_equivalence(conditions_a, conditions_b):
    a_text = query_text(conditions_a, "ea")
    b_text = query_text(conditions_b, "eb")
    a_psj, a_element = element_for(a_text)
    b_psj, b_element = element_for(b_text)

    if full_matches(a_element, b_psj) and full_matches(b_element, a_psj):
        a_rows = set(evaluate_psj(a_psj, DB.__getitem__).rows)
        b_rows = set(evaluate_psj(b_psj, DB.__getitem__).rows)
        if a_rows != b_rows:
            save_counterexample(
                "property: antisymmetry (mutual subsumption, unequal extensions)",
                a_text, b_text,
            )
            raise AssertionError(
                f"mutual subsumption with different extensions: {a_text} | {b_text}"
            )


def test_counterexamples_become_replayable_repros(tmp_path, monkeypatch):
    """The auto-save path itself: written files load and replay cleanly."""
    monkeypatch.setenv("BRAID_QA_REPRO_DIR", str(tmp_path))
    path = save_counterexample("demo", query_text(["X < 2"]))
    from repro.qa import load_repro, replay

    loaded = load_repro(path)
    assert loaded.queries == [query_text(["X < 2"])]
    assert not replay(path).failed
