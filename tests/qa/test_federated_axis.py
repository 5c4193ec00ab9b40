"""The federation axis of the differential fuzzer.

``CaseConfig.federated()`` spreads each case's tables over 2-3 pure-Python
backends; the ``federated`` variant runs the full CMS behind a
:class:`~repro.federation.interface.FederatedInterface` and must agree
with every single-backend variant and the oracle, byte for byte across
reruns.
"""

from repro.qa import (
    FEDERATED_VARIANT,
    VARIANTS,
    CaseConfig,
    CaseGenerator,
    FuzzCase,
    run_case,
    run_corpus,
)
from repro.qa.differential import _build_federation

CORPUS = 6  # small on purpose: this runs on every push
AXIS = VARIANTS + (FEDERATED_VARIANT,)


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
        report = run_corpus(cases, seed=0, variants=AXIS)
        assert not report.failed_cases, (
            f"divergences={report.divergences} violations={report.violations} "
            f"failed={report.failed_cases}"
        )
        assert report.degraded_answers == 0  # healthy backends never degrade

    def test_outcomes_cover_the_federated_variant(self):
        case = federated_generator().generate(0)
        report = run_case(case, variants=AXIS)
        federated = [o for o in report.outcomes if o.variant == FEDERATED_VARIANT]
        assert len(federated) == len(case.queries)
        assert all(o.status == "ok" for o in federated)

    def test_report_fingerprint_is_deterministic(self):
        generator = federated_generator(11)
        first = run_corpus(generator.corpus(3), seed=11, variants=AXIS)
        second = run_corpus(generator.corpus(3), seed=11, variants=AXIS)
        assert first.fingerprint() == second.fingerprint()
