"""Acceptance: planted predicate-emitter bugs are killed by the property suite.

Everything runs the one compiler in ``repro.relational.expressions``, so a
bug in it is a bug everywhere at once — including in the differential
fuzzer's oracle, which evaluates through ``operators.select`` (see
docs/testing.md for which fuzz profiles still see each mutant).  The net
under the emitter is therefore the hypothesis suite in
``tests/relational/test_predicate_property.py``, whose reference is built
from ``holds`` and shares nothing with generated code.  This file proves
that net bites.

Two mutants, both applied where source is emitted:

* ``strict`` — ``=<`` is emitted as ``<``;
* ``swapped`` — a literal-left condition (``5 < x``) is emitted with its
  operands exchanged and its operator kept (``x < 5``).

Each of the two properties must kill each mutant inside its own example
budget and shrink the counterexample to one conjunct over one row.
"""

import json

import pytest
from hypothesis import Phase, given, settings

from repro.relational import expressions
from repro.relational.expressions import Col, Lit, reset_predicate_cache
from tests.relational.test_predicate_property import (
    PROPERTIES,
    Divergence,
    conjunctions,
    rows,
)


def _strict(monkeypatch):
    monkeypatch.setitem(expressions._PY_OPS, "<=", "<")


def _swapped(monkeypatch):
    real_generate = expressions._generate

    def generate(shape):
        return real_generate(
            tuple(
                (right, op, left) if left < 0 <= right else (left, op, right)
                for left, op, right in shape
            )
        )

    monkeypatch.setattr(expressions, "_generate", generate)


@pytest.fixture(params=[_strict, _swapped], ids=["strict", "swapped"])
def planted_bug(request, monkeypatch, tmp_path):
    monkeypatch.setenv("BRAID_QA_REPRO_DIR", str(tmp_path))
    reset_predicate_cache()  # code generated before the mutant must not serve
    request.param(monkeypatch)
    yield request.param.__name__.lstrip("_")
    reset_predicate_cache()  # ... nor the mutant's code anything after it


def run_property(name):
    """The named property at its own budget: deterministic, generate and
    shrink only (no shared example database, no line-tracing explain phase)."""
    check, budget = PROPERTIES[name]
    run = settings(
        max_examples=budget,
        deadline=None,
        database=None,
        derandomize=True,
        phases=(Phase.generate, Phase.shrink),
    )(given(conjunctions, rows)(check))
    run()


@pytest.mark.parametrize("name", sorted(PROPERTIES))
class TestPlantedEmitterBugIsKilled:
    def test_killed_within_budget_and_shrunk(self, planted_bug, name, tmp_path):
        with pytest.raises(Divergence) as caught:
            run_property(name)
        conjunction, row_list = caught.value.conjunction, caught.value.rows
        assert len(conjunction) == 1 and len(row_list) == 1, (conjunction, row_list)
        (condition,) = conjunction
        if planted_bug == "strict":
            assert condition.op == "<="
        else:
            assert isinstance(condition.left, Lit) and isinstance(condition.right, Col)
        # The shrunk counterexample is on disk as a replayable repro file.
        reasons = [
            json.loads(path.read_text())["reason"] for path in tmp_path.iterdir()
        ]
        assert reasons and all(r.startswith("property:") for r in reasons)

    def test_clean_again_once_the_bug_is_fixed(self, planted_bug, name, monkeypatch):
        monkeypatch.undo()
        reset_predicate_cache()
        run_property(name)
