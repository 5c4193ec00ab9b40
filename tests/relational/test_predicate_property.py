"""Property suite: generated predicates ≡ a reference interpreter, always.

There is one predicate compiler (:mod:`repro.relational.expressions`) and
the local operators, the remote engine and the fuzzer's oracle all run
its output, so the reference cannot be any of them.  It is
:func:`interpret` below: each conjunct evaluated on concrete values
through :func:`repro.relational.expressions.holds` — the function
``caql.implication`` decides with — sharing no code with the emitter.

Hypothesis drives randomized conjuncts (every operator, constants and
columns on either side, so ``5 < x`` and constant-only terms occur) over
randomized value soups: repr-colliders (``1`` vs ``1.0`` vs ``"1"`` vs
``True``), ``None``, NaN, a tuple-valued literal, empty relations.  The
generated row predicate and ``select`` must each agree with the
interpreter row for row and in order.
``tests/qa/test_predicate_planted_bug.py`` plants two emitter mutants to
prove these properties bite.

Counterexamples hypothesis shrinks to are ALSO written out as standard
repro.qa repro files (``BRAID_QA_REPRO_DIR``, default ``.qa-repros``),
replayable with ``python -m repro fuzz --replay`` — the same pattern as
the subsumption property suite.  Conjuncts with no CAQL spelling (the
parser has no quoted strings; NaN, None and tuples are not terms) are
saved as a full-scan query over the same rows, with the conjunct recorded
in the reason.
"""

import math
import os
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caql.eval import result_schema
from repro.qa import write_repro
from repro.qa.generator import case_from_relations
from repro.relational.expressions import (
    Col,
    Comparison,
    Lit,
    compile_conjunction,
    holds,
)
from repro.relational.operators import select
from repro.relational.relation import Relation

SCHEMA = result_schema("r", 3)  # attributes a0, a1, a2

#: One NaN object: a row holding it equals itself (tuple equality checks
#: identity first), so set semantics stay well defined.
NAN = float("nan")

#: The value soup: repr-colliders on purpose.  1 == 1.0 == True but
#: 1 != "1"; "one" is a CAQL-spellable atom, "1" is not.
VALUES = [0, 1, 2, -1, 1.0, 2.5, -0.5, "1", "one", "b", True, False, None, NAN]

OPS = ["=", "!=", "<", ">", "<=", ">="]

values = st.sampled_from(VALUES)
columns = st.sampled_from([Col(a) for a in SCHEMA.attributes])
#: Literals also take a tuple value no row holds: it must compile (it is a
#: factory argument, never source text) and never match.
operands = st.one_of(columns, st.sampled_from(VALUES + [(1, 2)]).map(Lit))
conditions = st.builds(Comparison, operands, st.sampled_from(OPS), operands)
#: Up to three conjuncts, each slot present or absent on its own, so a
#: counterexample shrinks conjunct by conjunct (a ``lists(max_size=3)``
#: drawn at its maximum does not shrink in length).
conjunctions = st.tuples(*[st.none() | conditions] * 3).map(
    lambda slots: [c for c in slots if c is not None]
)
rows = st.lists(
    st.tuples(values, values, values), max_size=12
)


class Divergence(AssertionError):
    """A subject disagreed with the interpreter on these inputs."""

    def __init__(self, message, conjunction, row_list):
        super().__init__(f"{message} for {[str(c) for c in conjunction]}")
        self.conjunction = conjunction
        self.rows = row_list


def interpret(conjunction, row) -> bool:
    """The reference: every conjunct through ``holds``, no generated code."""

    def value(operand):
        if isinstance(operand, Col):
            return row[SCHEMA.position(operand.name)]
        return operand.value

    return all(
        holds(value(c.left), c.op, value(c.right)) for c in conjunction
    )


ATOM = re.compile(r"[a-z][a-z0-9_]*\Z")


def _caql_constant(value) -> str | None:
    """The CAQL spelling of a constant, or None when it has none."""
    if type(value) is int:
        return repr(value)
    if type(value) is float and math.isfinite(value):
        return repr(value)
    if isinstance(value, str) and ATOM.match(value):
        return value
    return None  # bools, None, NaN, tuples, non-atom strings: not spellable


def _caql_query(conjunction) -> str | None:
    """The conjunction as a CAQL query over r/3, or None if unspellable."""
    var_of = {a: f"X{i}" for i, a in enumerate(SCHEMA.attributes)}
    rendered = []
    for condition in conjunction:
        condition = condition.normalized()  # ``5 < X`` is spelled ``X > 5``
        if not isinstance(condition.left, Col):
            return None  # constant-only term
        sides = []
        for operand in (condition.left, condition.right):
            if isinstance(operand, Col):
                sides.append(var_of[operand.name])
            else:
                spelled = _caql_constant(operand.value)
                if spelled is None:
                    return None
                sides.append(spelled)
        op = "=<" if condition.op == "<=" else condition.op
        rendered.append(f"{sides[0]} {op} {sides[1]}")
    body = ", ".join(["r(X0, X1, X2)"] + rendered)
    return f"q(X0, X1, X2) :- {body}"


def save_counterexample(reason, conjunction, row_list):
    """Persist the (shrunk) failing inputs as a replayable repro file.

    Rows holding NaN have no JSON spelling, so they are not saved: the
    :class:`Divergence` message carries them instead.
    """
    if any(value != value for row in row_list for value in row):
        return None
    directory = os.environ.get("BRAID_QA_REPRO_DIR", ".qa-repros")
    os.makedirs(directory, exist_ok=True)
    relation = Relation(SCHEMA, row_list)
    text = _caql_query(conjunction)
    if text is None:
        # No CAQL spelling for some constant: a full-scan repro over the
        # same rows, with the exact conjunct preserved in the reason.
        conjunct = " AND ".join(str(c) for c in conjunction) or "<empty>"
        reason = f"{reason} [conjunct: {conjunct}]"
        text = "q(X0, X1, X2) :- r(X0, X1, X2)"
    case = case_from_relations({"r": relation}, [text])
    path = os.path.join(
        directory, f"repro-predicate-{case.fingerprint()[:12]}.json"
    )
    write_repro(path, case, reason=reason)
    return path


def check_row_predicate(conjunction, row_list):
    predicate = compile_conjunction(conjunction, SCHEMA)
    for row in dict.fromkeys(row_list):
        if bool(predicate(row)) != interpret(conjunction, row):
            save_counterexample(
                "property: generated row predicate diverges from holds()",
                conjunction, row_list,
            )
            raise Divergence(f"row predicate wrong on {row!r}", conjunction, row_list)


def check_select(conjunction, row_list):
    relation = Relation(SCHEMA, row_list)
    expected = [row for row in relation if interpret(conjunction, row)]
    selected = select(relation, conjunction)
    selected.check_invariants()
    if selected.rows != expected:
        save_counterexample(
            "property: select diverges from holds()", conjunction, row_list
        )
        raise Divergence(
            f"select {selected.rows} != {expected}", conjunction, row_list
        )


#: ``(check, example budget)``: what the planted-mutant tests re-run.
PROPERTIES = {
    "row": (check_row_predicate, 200),
    "select": (check_select, 150),
}


@settings(max_examples=PROPERTIES["row"][1], deadline=None)
@given(conjunctions, rows)
def test_compiled_row_predicate_matches_interpreter(conjunction, row_list):
    check_row_predicate(conjunction, row_list)


@settings(max_examples=PROPERTIES["select"][1], deadline=None)
@given(conjunctions, rows)
def test_select_matches_interpreter(conjunction, row_list):
    check_select(conjunction, row_list)


def test_repr_colliders_follow_python_equality():
    # 1 == 1.0 == True, but 1 != "1": the compiled path must preserve the
    # exact equality classes canonical_bindings dedups by.
    relation = Relation(SCHEMA, [(1, 0, 0), (1.0, 1, 1), ("1", 2, 2), (True, 3, 3)])
    # 1.0 and True dedup against 1 only when ALL columns collide; here the
    # other columns differ so all four rows survive as distinct.
    assert len(relation) == 4
    got = select(relation, [Comparison(Col("a0"), "=", Lit(1))])
    assert ("1", 2, 2) not in set(got.rows)
    assert len(got) == 3  # 1, 1.0, True all equal 1


def test_counterexamples_become_replayable_repros(tmp_path, monkeypatch):
    """The auto-save path itself: written files load and replay cleanly."""
    monkeypatch.setenv("BRAID_QA_REPRO_DIR", str(tmp_path))
    from repro.qa import load_repro, replay

    spellable = [Comparison(Col("a0"), "<=", Lit(2))]
    path = save_counterexample(
        "demo", spellable, [(0, 1, 2), (3, 4, 5)]
    )
    assert load_repro(path).queries == ["q(X0, X1, X2) :- r(X0, X1, X2), X0 =< 2"]
    assert not replay(path).failed

    unspellable = [Comparison(Col("a0"), "=", Lit("1"))]
    path = save_counterexample("demo", unspellable, [(0, 1, 2)])
    loaded = load_repro(path)
    assert loaded.queries == ["q(X0, X1, X2) :- r(X0, X1, X2)"]
    import json

    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert "a0 = '1'" in payload["reason"]  # the conjunct survives in the reason
    assert not replay(path).failed
