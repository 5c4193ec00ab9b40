"""The federation axis of the differential fuzzer.

``CaseConfig.federated()`` spreads each case's tables over 2-3 pure-Python
backends; the ``federated`` variant runs the full CMS behind a
:class:`~repro.federation.interface.FederatedInterface` and must agree
with every single-backend variant and the oracle, byte for byte across
reruns.  A case that carries backends runs the variant wherever it is run
— in a corpus, or replayed from a repro file.
"""

from repro.relational.relation import Relation
from repro.federation.interface import FederatedInterface
from repro.qa import (
    FEDERATED_VARIANT,
    VARIANTS,
    CaseConfig,
    CaseGenerator,
    FuzzCase,
    replay,
    run_case,
    run_corpus,
    write_repro,
)
from repro.qa.differential import _build_federation

CORPUS = 6  # small on purpose: this runs on every push


def federated_generator(seed=0):
    return CaseGenerator(seed, CaseConfig.federated())


class TestGenerator:
    def test_cases_assign_every_table_a_backend(self):
        case = federated_generator().generate(0)
        tables = {t["name"] for t in case.tables}
        assert set(case.backends) == tables
        assert 1 <= len(set(case.backends.values())) <= 3

    def test_backend_assignment_round_trips_json(self):
        case = federated_generator().generate(3)
        clone = FuzzCase.from_dict(case.to_dict())
        assert clone.backends == case.backends
        assert clone.fingerprint() == case.fingerprint()

    def test_single_backend_profiles_draw_nothing(self):
        # The default profile never draws for backends, so pre-federation
        # corpora are bit-identical: same fingerprint, no assignments.
        case = CaseGenerator(0).generate(0)
        assert case.backends == {}

    def test_build_federation_groups_by_assignment(self):
        case = federated_generator().generate(1)
        federation = _build_federation(case)
        assert set(federation.backends()) == set(case.backends.values())
        for table, backend in case.backends.items():
            assert federation.catalog.home_of(table) == backend


class TestFederatedVariant:
    def test_corpus_is_clean_across_the_axis(self):
        cases = federated_generator().corpus(CORPUS)
        report = run_corpus(cases, seed=0)
        assert not report.failed_cases, (
            f"divergences={report.divergences} violations={report.violations} "
            f"failed={report.failed_cases}"
        )
        assert report.degraded_answers == 0  # healthy backends never degrade

    def test_outcomes_cover_the_federated_variant(self):
        case = federated_generator().generate(0)
        report = run_case(case)
        federated = [o for o in report.outcomes if o.variant == FEDERATED_VARIANT]
        assert len(federated) == len(case.queries)
        assert all(o.status == "ok" for o in federated)

    def test_report_fingerprint_is_deterministic(self):
        generator = federated_generator(11)
        first = run_corpus(generator.corpus(3), seed=11)
        second = run_corpus(generator.corpus(3), seed=11)
        assert first.fingerprint() == second.fingerprint()

    def test_single_backend_cases_skip_the_federated_variant(self):
        report = run_case(CaseGenerator(0).generate(0))
        assert {o.variant for o in report.outcomes} == set(VARIANTS)


class TestReplay:
    """A written federated repro replays through the variant that found it."""

    def written(self, tmp_path) -> str:
        path = str(tmp_path / "repro-federated.json")
        write_repro(path, federated_generator().generate(0), "federated")
        return path

    def test_replay_runs_the_federated_variant(self, tmp_path):
        report = replay(self.written(tmp_path))
        variants = {o.variant for o in report.outcomes}
        assert variants == set(VARIANTS) | {FEDERATED_VARIANT}
        assert not report.failed

    def test_federated_only_divergence_replays_as_failing(self, tmp_path, monkeypatch):
        path = self.written(tmp_path)
        real_fetch = FederatedInterface.fetch

        def drop_a_row(self, psj, bindings=None):
            result = real_fetch(self, psj, bindings)
            return Relation(result.schema, result.rows[1:])

        monkeypatch.setattr(FederatedInterface, "fetch", drop_a_row)
        report = replay(path)
        assert report.failed
        assert {d.variant for d in report.divergences} == {FEDERATED_VARIANT}
