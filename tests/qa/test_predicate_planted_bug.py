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

Two more mutants are planted in the batch kernel only, on what it does
after a type clash (the row predicate is untouched):

* ``no_fallback`` — the kernel returns ``[]``;
* ``partial_fallback`` — it keeps only the rows accepted before the clash.

The ``select`` property kills each and shrinks it to one conjunct over
two rows — a clashing row and a row the conjunct accepts, since a clash
alone is excluded by the right answer too.  The ``row`` property is blind
to both by design: it runs the row predicate, which they leave alone.
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


#: The batch kernel's body, as the template spells it.
KERNEL = (
    "        try:\n"
    "            return [row for row in rows if {test}]\n"
    "        except TypeError:\n"
    "            return [row for row in rows if _row(row)]\n"
)


def _plant_kernel(monkeypatch, body):
    assert KERNEL in expressions._TEMPLATE
    monkeypatch.setattr(
        expressions, "_TEMPLATE", expressions._TEMPLATE.replace(KERNEL, body)
    )


def _no_fallback(monkeypatch):
    _plant_kernel(monkeypatch, KERNEL.replace("if _row(row)]", "if False]"))


def _partial_fallback(monkeypatch):
    _plant_kernel(
        monkeypatch,
        "        kept = []\n"
        "        try:\n"
        "            for row in rows:\n"
        "                if {test}:\n"
        "                    kept.append(row)\n"
        "        except TypeError:\n"
        "            pass\n"
        "        return kept\n",
    )


@pytest.fixture(
    params=[_no_fallback, _partial_fallback], ids=["no_fallback", "partial_fallback"]
)
def planted_kernel_bug(request, monkeypatch, tmp_path):
    monkeypatch.setenv("BRAID_QA_REPRO_DIR", str(tmp_path))
    reset_predicate_cache()
    request.param(monkeypatch)
    yield
    reset_predicate_cache()


class TestPlantedKernelBugIsKilled:
    def test_select_kills_it_and_shrinks_it(self, planted_kernel_bug, tmp_path):
        with pytest.raises(Divergence) as caught:
            run_property("select")
        conjunction, row_list = caught.value.conjunction, caught.value.rows
        assert len(conjunction) == 1 and len(row_list) == 2, (conjunction, row_list)
        reasons = [
            json.loads(path.read_text())["reason"] for path in tmp_path.iterdir()
        ]
        assert reasons and all(r.startswith("property: select") for r in reasons)

    def test_the_row_property_is_blind_to_it(self, planted_kernel_bug):
        run_property("row")

    def test_clean_again_once_the_bug_is_fixed(self, planted_kernel_bug, monkeypatch):
        monkeypatch.undo()
        reset_predicate_cache()
        run_property("select")
