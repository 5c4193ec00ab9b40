"""Acceptance: a planted access-path bug is killed on rows, three ways.

Companion of the other ``*_planted_bug`` files, for the hash indexes the
pure-Python remote engine answers pins, IN-lists and joins through.  An index
is only as right as its bucket key: the engine compares values with ``==``
(``1``, ``1.0`` and ``True`` are one value, ``"1"`` is another), so keys must
collide exactly when ``==`` holds.

The mutant keys buckets on ``(type, value)`` — a plausible "fix" for the
``1``/``"1"`` collision that ``==`` never had.  A probe for ``3.0`` then walks
past the rows holding ``3``, and because the probe only *narrows* what the
unchanged operator sees, nothing downstream can bring them back.  It must be
killed by

* ``tests/remote/test_mixed_type_bindings.py`` — the hand-written mixed-key
  cases (pin, IN-list, join) against sqlite's answers;
* the engine differential of ``tests/remote/test_access_paths_property.py``
  inside its own example budget;
* the ``variants`` fuzz profile, which respells ``3`` as ``3.0`` in re-asks:
  three of the CI smoke's 50 cases (the first is case 30) return wrong rows
  on the cache-less variant, where every re-ask reaches the remote engine —
  shrunk to a replayable repro.  The other four profiles never cross a
  type and do not see it.
"""

import pytest
from hypothesis import Phase, given, settings

import repro.relational.index as index_module
from repro.qa import (
    CaseConfig,
    CaseGenerator,
    case_failure,
    replay,
    shrink,
    write_repro,
)
from repro.remote.engine import PurePythonEngine
from tests.remote import test_access_paths_property as properties
from tests.remote import test_mixed_type_bindings as mixed

CORPUS = 50  # the CI smoke's variants corpus


def _strict(key):
    return tuple((type(value).__name__, value) for value in key)


class TypeStrictIndex(index_module.HashIndex):
    """``HashIndex`` whose bucket keys tell ``3`` from ``3.0``."""

    def __init__(self, relation, attributes):
        super().__init__(relation, attributes)
        self._buckets = {}
        for ordinal, row in enumerate(relation):
            key = _strict(row[i] for i in self._positions)
            self._buckets.setdefault(key, []).append(ordinal)

    def lookup_any(self, keys):  # ``lookup`` goes through it too
        return super().lookup_any(_strict(key) for key in keys)


@pytest.fixture
def planted_bug(monkeypatch):
    monkeypatch.setattr(index_module, "HashIndex", TypeStrictIndex)


def _mixed_key_cases():
    """The pure-engine cases of the mixed-type file that cross a type."""
    pins = mixed.TestAccessPathsOnMixedKeys()
    lists = mixed.TestEngineParityOnMixedKeys()
    return {
        "pin": lambda e: pins.test_a_pin_meets_keys_the_way_equality_does(e, 3.0, {(3, "c")}),
        "in-list": lists.test_float_binding_matches_equal_int_key,
        "in-list-twice": pins.test_an_in_list_finds_the_same_rows_from_its_index,
        "join": pins.test_a_join_meets_keys_the_way_equality_does,
    }


def _failing_case():
    for case in CaseGenerator(0, CaseConfig.variants()).corpus(CORPUS):
        if case_failure(case) is not None:
            return case
    pytest.fail("planted type-strict bucket key escaped the variants corpus")


def _run_differential():
    """The engine differential at its own budget: deterministic, generate
    and shrink only (no shared example database, no explicit examples)."""
    settings(
        max_examples=properties.SELECT_BUDGET,
        deadline=None,
        database=None,
        derandomize=True,
        report_multiple_bugs=False,
        phases=(Phase.generate, Phase.shrink),
    )(given(*properties.SELECT_INPUTS)(properties.check_select))()


class TestPlantedBucketKeyBugIsKilled:
    @pytest.mark.parametrize("name", sorted(_mixed_key_cases()))
    def test_killed_by_the_mixed_type_cases(self, planted_bug, name):
        with pytest.raises(AssertionError):
            _mixed_key_cases()[name](mixed.load_keys(PurePythonEngine()))

    def test_killed_by_the_engine_differential_within_its_budget(self, planted_bug):
        with pytest.raises(AssertionError):
            _run_differential()

    def test_killed_on_rows_by_the_variants_profile_and_shrunk_to_a_repro(
        self, planted_bug, tmp_path
    ):
        case = _failing_case()
        assert "wrong-rows" in case_failure(case)
        result = shrink(case, case_failure)
        assert result.queries <= 2, (
            f"shrunk case still has {result.queries} queries "
            f"(from {result.original_queries})"
        )
        assert "wrong-rows" in result.reason
        path = tmp_path / "repro-access-path.json"
        write_repro(str(path), result.case, reason=result.reason)
        assert replay(str(path)).failed

    def test_clean_again_once_the_bug_is_fixed(self, planted_bug, monkeypatch):
        case = _failing_case()
        monkeypatch.undo()
        assert case_failure(case) is None
        for check in _mixed_key_cases().values():
            check(mixed.load_keys(PurePythonEngine()))
