"""E22 — canonicalization-first semantic caching on a variation-heavy stream.

The same asks keep coming back in different spellings: conjuncts
shuffled, variables renamed, redundant bounds added, constants respelled
(``300`` vs ``300.0``).  Structural exact-match sees none of them;
subsumption *can* recover each one, but only by re-deriving rows through
the residual machinery.  The canonical tier recognizes the spellings as
the same query up front and serves the cached rows directly.

Workload: 4 base selection/join queries over the retail universe, then
three rounds of seeded equivalent mutations of each
(:func:`repro.qa.generator.mutate_equivalent` — the same mutator the
``variants`` fuzz profile uses).  Two configurations, one stream:

* **canonical** (``CMSFeatures()``): variant spellings land as
  canonical-tier hits (``cache.canonical_hits``).
* **subsumption-only** (``CMSFeatures(canonical=False)``): the planner
  discards canonical-keyed hits for variant spellings, so every variant
  must go through subsumption derivation.

The claims under test: the canonical tier's hit rate is strictly above
the subsumption-only baseline's (which is zero), total reuse coverage
does not shrink, answers are identical across both configurations and
the no-cache oracle, and the canonical run does strictly less local
work (tuples processed, simulated seconds).  Everything is seeded.
"""

from __future__ import annotations

import random

import pytest

from benchmarks.harness import format_table, record

from repro.caql.parser import parse_query
from repro.common.metrics import (
    CACHE_HITS_CANONICAL,
    CACHE_HITS_EXACT,
    CACHE_HITS_SUBSUMED,
    CACHE_MISSES,
    CACHE_TUPLES_PROCESSED,
    REMOTE_REQUESTS,
    REMOTE_TUPLES,
)
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.obs.export import fingerprint
from repro.qa.generator import mutate_equivalent
from repro.remote.server import RemoteDBMS
from repro.workloads.synthetic import retail_universe

SEED = 22
ROUNDS = 3  # variant respellings of every base query

TABLES = retail_universe(rows=300, orders=600, domain=1000, seed=5).tables

BASES = [
    "q0(X, C, V) :- item(X, C, V), V > 200, V < 700",
    "q1(X, Q) :- item(X, C, V), ord(X, Q), V >= 300, V =< 800, Q > 1",
    "q2(X, V) :- item(X, C, V), C = cat3, V \\= 500",
    "q3(X, Q, V) :- item(X, C, V), ord(X, Q), Q >= 2, V < 600",
]


def variant_stream() -> list[str]:
    """The bases once, then ROUNDS seeded equivalent respellings of each."""
    rng = random.Random(SEED)
    stream = list(BASES)
    for _ in range(ROUNDS):
        for base in BASES:
            stream.append(mutate_equivalent(base, rng))
    return stream


STREAM = variant_stream()


def run_stream(features: CMSFeatures) -> dict:
    server = RemoteDBMS()
    for table in TABLES:
        server.load_table(table)
    cms = CacheManagementSystem(server, features=features)
    before = cms.metrics.snapshot()
    cms.begin_session(None)
    answers = [
        sorted(map(repr, cms.query(parse_query(text)).fetch_all()))
        for text in STREAM
    ]
    delta = cms.metrics.diff(before)
    return {
        "canonical_hits": delta.get(CACHE_HITS_CANONICAL, 0),
        "exact_hits": delta.get(CACHE_HITS_EXACT, 0),
        "subsumed_hits": delta.get(CACHE_HITS_SUBSUMED, 0),
        "misses": delta.get(CACHE_MISSES, 0),
        "tuples_processed": delta.get(CACHE_TUPLES_PROCESSED, 0),
        "remote_requests": delta.get(REMOTE_REQUESTS, 0),
        "tuples_shipped": delta.get(REMOTE_TUPLES, 0),
        "sim_seconds": round(cms.clock.now, 9),
        "answers": answers,
        "fingerprint": fingerprint(answers),
    }


@pytest.fixture(scope="module")
def canonical():
    return run_stream(CMSFeatures())


@pytest.fixture(scope="module")
def subsumption_only():
    return run_stream(CMSFeatures(canonical=False))


@pytest.fixture(scope="module")
def no_cache_oracle():
    return run_stream(CMSFeatures.none())


class TestE22Canonical:
    def test_answers_identical_across_configurations(
        self, canonical, subsumption_only, no_cache_oracle
    ):
        assert canonical["answers"] == no_cache_oracle["answers"]
        assert subsumption_only["answers"] == no_cache_oracle["answers"]

    def test_canonical_tier_hit_rate_strictly_above_baseline(
        self, canonical, subsumption_only
    ):
        """The tentpole claim: the canonical tier fires on variant
        spellings; the subsumption-only baseline never can."""
        variants = len(STREAM) - len(BASES)
        assert subsumption_only["canonical_hits"] == 0
        assert canonical["canonical_hits"] > 0
        assert (
            canonical["canonical_hits"] / variants
            > subsumption_only["canonical_hits"] / variants
        )
        # Most variants land on the canonical tier, not just a few.
        assert canonical["canonical_hits"] >= variants - ROUNDS

    def test_reuse_coverage_does_not_shrink(self, canonical, subsumption_only):
        """Every reuse the baseline finds via subsumption, the canonical
        run finds too (as a cheaper exact/canonical hit)."""
        covered = canonical["exact_hits"] + canonical["subsumed_hits"]
        baseline = subsumption_only["exact_hits"] + subsumption_only["subsumed_hits"]
        assert covered >= baseline
        assert canonical["misses"] <= subsumption_only["misses"]

    def test_canonical_run_does_strictly_less_local_work(
        self, canonical, subsumption_only
    ):
        """Serving cached rows directly beats re-deriving them through
        the subsumption residual machinery."""
        assert canonical["tuples_processed"] < subsumption_only["tuples_processed"]
        assert canonical["sim_seconds"] < subsumption_only["sim_seconds"]

    def test_remote_cost_never_regresses(self, canonical, subsumption_only):
        assert canonical["remote_requests"] <= subsumption_only["remote_requests"]
        assert canonical["tuples_shipped"] <= subsumption_only["tuples_shipped"]

    def test_deterministic_rerun(self, canonical):
        again = run_stream(CMSFeatures())
        assert again["fingerprint"] == canonical["fingerprint"]
        assert again["canonical_hits"] == canonical["canonical_hits"]

    def test_record(self, canonical, subsumption_only, no_cache_oracle):
        labels = [
            ("canonical", canonical),
            ("subsumption-only", subsumption_only),
            ("no-cache", no_cache_oracle),
        ]
        rows = [
            [
                label,
                run["canonical_hits"],
                run["exact_hits"],
                run["subsumed_hits"],
                run["misses"],
                run["tuples_processed"],
                run["remote_requests"],
                f"{run['sim_seconds']:.4f}",
            ]
            for label, run in labels
        ]
        table = format_table(
            ["configuration", "canonical", "exact", "subsumed", "misses",
             "tuples_proc", "remote reqs", "sim_s"],
            rows,
        )
        variants = len(STREAM) - len(BASES)
        record(
            "E22",
            title="Canonicalization-first semantic caching under variant spellings",
            table=table,
            notes=(
                f"{len(BASES)} base queries re-asked as {variants} seeded "
                f"equivalent spellings: the canonical tier serves "
                f"{canonical['canonical_hits']}/{variants} directly "
                f"(baseline rate 0), saving "
                f"{subsumption_only['tuples_processed'] - canonical['tuples_processed']} "
                f"locally processed tuples and "
                f"{subsumption_only['sim_seconds'] - canonical['sim_seconds']:.4f}s "
                f"simulated vs subsumption-only. Answers identical across "
                f"all configurations including the no-cache oracle."
            ),
            data={
                "seed": SEED,
                "rounds": ROUNDS,
                "bases": BASES,
                "stream_length": len(STREAM),
                "configurations": {
                    label: {k: v for k, v in run.items() if k != "answers"}
                    for label, run in labels
                },
            },
        )

    def test_benchmark_canonical_stream(self, benchmark):
        benchmark.pedantic(
            lambda: run_stream(CMSFeatures()), rounds=1, iterations=1
        )
