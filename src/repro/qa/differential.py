"""Differential execution of fuzz cases across independent oracles.

Every query of a case runs through five implementations (six for a
federated case) that must agree:

* ``full`` — the complete CMS (caching, subsumption, lazy evaluation,
  prefetch, generalization, indexing, parallel tracks, semijoin,
  batching), with the case's fault schedule installed when it has one;
* ``nocache`` — the CMS with every technique off (``CMSFeatures.none()``),
  a loose-coupling shim through the same code paths;
* ``loose`` / ``exact-cache`` / ``relation-buffer`` — the three
  comparison baselines;
* ``federated`` — the full CMS behind the federation layer, for a case
  whose tables are spread over several backends;
* the **oracle** — direct evaluation over the case's base tables via
  :func:`repro.caql.eval.evaluate_conjunctive`, no caching machinery at
  all.

The contract: a non-degraded answer must be tuple-set-equal to the
oracle's; an answer that diverges must be tagged ``degraded`` (and only
faulted runs may degrade); a faulted variant may error, a healthy one may
not.  The full CMS additionally has its planner audited on every plan and
its cache/metrics/plan/stream invariants checked after every query.
Reports carry canonical fingerprints, so byte-identical same-seed reruns
are asserted by comparing two strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.exact_cache import ExactMatchCache
from repro.baselines.loose import LooseCoupling
from repro.baselines.relation_cache import SingleRelationBuffer
from repro.common.errors import BraidError, InvariantViolation
from repro.caql.eval import evaluate_conjunctive
from repro.core.cms import CacheManagementSystem, CMSFeatures
from repro.remote.server import RemoteDBMS
from repro.obs.export import fingerprint
from repro.qa.generator import FuzzCase, encode_rows
from repro.qa.invariants import audit_cms, audit_stream

#: Variant names, in report order.  ``full`` first: it is the system under
#: test; the rest are the cross-checks.
VARIANTS = ("full", "nocache", "loose", "exact-cache", "relation-buffer")

#: The federation axis: the full CMS again, but with the case's base
#: tables spread across several backends (``FuzzCase.backends``) behind a
#: :class:`~repro.federation.interface.FederatedInterface`.  Cross-backend
#: joins run as plans of per-backend parts, bound on earlier parts' values
#: by semijoin ship-bindings, and combined locally; the answers
#: must still be tuple-set-equal to the single-backend oracle.  Every case
#: that carries ``backends`` runs it (:func:`run_case` decides).
FEDERATED_VARIANT = "federated"


@dataclass
class QueryOutcome:
    """One (query, variant) execution."""

    query_index: int
    variant: str
    #: ``ok``, ``degraded``, or ``error``.
    status: str
    #: Canonical digest of the produced row set ("" for errors).
    digest: str = ""
    #: Error type name when status == "error".
    error: str = ""

    def to_dict(self) -> dict:
        return {
            "query_index": self.query_index,
            "variant": self.variant,
            "status": self.status,
            "digest": self.digest,
            "error": self.error,
        }


@dataclass
class Divergence:
    """A disagreement the contract does not excuse."""

    query_index: int
    variant: str
    #: ``wrong-rows``, ``unexpected-error``, or ``invariant``.
    kind: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "query_index": self.query_index,
            "variant": self.variant,
            "kind": self.kind,
            "detail": self.detail,
        }


@dataclass
class CaseReport:
    """Everything the differential runner observed for one case."""

    case_index: int
    case_fingerprint: str
    outcomes: list[QueryOutcome] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    #: Degraded answers observed (allowed divergences, for reporting).
    degraded_answers: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.divergences or self.violations)

    def to_dict(self) -> dict:
        return {
            "case_index": self.case_index,
            "case_fingerprint": self.case_fingerprint,
            "outcomes": [o.to_dict() for o in self.outcomes],
            "divergences": [d.to_dict() for d in self.divergences],
            "violations": list(self.violations),
            "degraded_answers": self.degraded_answers,
        }

    def fingerprint(self) -> str:
        return fingerprint(self.to_dict())


@dataclass
class FuzzReport:
    """The aggregate over a corpus run."""

    seed: int
    cases: int = 0
    divergences: int = 0
    violations: int = 0
    degraded_answers: int = 0
    failed_cases: list[int] = field(default_factory=list)
    reports: list[CaseReport] = field(default_factory=list)
    corpus_fingerprint: str = ""

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "divergences": self.divergences,
            "violations": self.violations,
            "degraded_answers": self.degraded_answers,
            "failed_cases": list(self.failed_cases),
            "corpus_fingerprint": self.corpus_fingerprint,
            "reports": [r.to_dict() for r in self.reports],
        }

    def fingerprint(self) -> str:
        return fingerprint(self.to_dict())


# -- building the systems under test ------------------------------------------------


def _load_server(case: FuzzCase) -> RemoteDBMS:
    server = RemoteDBMS()
    for relation in case.build_tables():
        server.load_table(relation)
    return server


def _build_federation(case: FuzzCase):
    """The case's tables spread over their assigned backends.

    Tables not named in ``case.backends`` (single-backend corpora) land on
    a default ``s0`` backend, so the variant degenerates to one backend
    behind the federated plumbing — still a useful smoke of the routing
    layer.  Backends are deterministic pure-Python engines, healthy: the
    federation axis tests per-backend plan equivalence, not fault handling.
    """
    from repro.federation import BackendSpec, build_federation

    grouped: dict[str, list] = {}
    for relation in case.build_tables():
        home = case.backends.get(relation.schema.name, "s0")
        grouped.setdefault(home, []).append(relation)
    specs = [
        BackendSpec(name=name, tables=tuple(grouped[name]))
        for name in sorted(grouped)
    ]
    return build_federation(specs)


def build_variant(case: FuzzCase, variant: str):
    """A fresh system of the named variant, loaded with the case's tables.

    Only ``full`` ever gets the fault schedule (installed by the runner at
    ``case.fault_onset``, modelling an outage window): the cross-checks
    establish what the answers *should* be, so their links stay healthy.
    """
    if variant == "full":
        cms = CacheManagementSystem(
            _load_server(case),
            capacity_bytes=case.cache_bytes,
            features=CMSFeatures(),
        )
        cms.planner.audit = True
        return cms
    if variant == "nocache":
        cms = CacheManagementSystem(
            _load_server(case),
            capacity_bytes=case.cache_bytes,
            features=CMSFeatures.none(),
        )
        cms.planner.audit = True
        return cms
    if variant == FEDERATED_VARIANT:
        # The full CMS over the case's tables scattered across backends.
        # Healthy links (like every cross-check): the federation axis
        # tests cross-backend join equivalence, not fault handling.
        cms = _build_federation(case).cms(
            capacity_bytes=case.cache_bytes, features=CMSFeatures()
        )
        cms.planner.audit = True
        return cms
    if variant == "loose":
        return LooseCoupling(_load_server(case))
    if variant == "exact-cache":
        return ExactMatchCache(_load_server(case))
    if variant == "relation-buffer":
        return SingleRelationBuffer(_load_server(case))
    raise ValueError(f"unknown variant: {variant}")


# -- running one case ------------------------------------------------------------------


def run_case(case: FuzzCase) -> CaseReport:
    """Execute the case through each of its variants and the oracle; compare."""
    report = CaseReport(case_index=case.index, case_fingerprint=case.fingerprint())
    queries = case.parsed_queries()
    database = case.database()
    advice = case.build_advice()
    faulted = case.fault is not None

    expected: list[str] = []
    for query in queries:
        rows = evaluate_conjunctive(query, database.__getitem__)
        expected.append(fingerprint(encode_rows(rows.rows)))

    # Decided from the case alone, so a written repro replays through the
    # same variants that found it: a case with backends is a federated case.
    variants = VARIANTS + (FEDERATED_VARIANT,) if case.backends else VARIANTS
    systems = {name: build_variant(case, name) for name in variants}
    for system in systems.values():
        system.begin_session(advice)

    for q_index, query in enumerate(queries):
        if faulted and "full" in systems and q_index == case.fault_onset:
            # The outage begins: the healthy prefix is already cached (and
            # archived), which is exactly what degraded answers draw on.
            systems["full"].remote.set_fault_policy(case.build_fault_policy())
        for name, system in systems.items():
            may_fault = faulted and name == "full" and q_index >= case.fault_onset
            try:
                stream = system.query(query)
                rows = stream.fetch_all()
            except BraidError as error:
                report.outcomes.append(
                    QueryOutcome(q_index, name, "error", error=type(error).__name__)
                )
                if not may_fault:
                    report.divergences.append(
                        Divergence(
                            q_index,
                            name,
                            "unexpected-error",
                            f"{type(error).__name__}: {error}",
                        )
                    )
                continue
            digest = fingerprint(encode_rows(rows))
            degraded = bool(getattr(stream, "degraded", False))
            status = "degraded" if degraded else "ok"
            report.outcomes.append(QueryOutcome(q_index, name, status, digest=digest))
            if degraded:
                # Allowed to diverge, but only a faulted link may degrade.
                report.degraded_answers += 1
                if not may_fault:
                    report.divergences.append(
                        Divergence(
                            q_index, name, "unexpected-error",
                            "degraded answer on a healthy link",
                        )
                    )
            elif digest != expected[q_index]:
                report.divergences.append(
                    Divergence(
                        q_index,
                        name,
                        "wrong-rows",
                        f"non-degraded answer differs from oracle "
                        f"({digest[:12]} != {expected[q_index][:12]})",
                    )
                )
            try:
                audit_stream(stream)
                if name in ("full", "nocache", FEDERATED_VARIANT):
                    audit_cms(system)
            except InvariantViolation as violation:
                report.violations.append(f"q{q_index}/{name}: {violation}")

    return report


def run_corpus(
    cases: list[FuzzCase], seed: int, keep_reports: bool = True
) -> FuzzReport:
    """Run every case; aggregate divergences, violations, fingerprints."""
    report = FuzzReport(
        seed=seed,
        corpus_fingerprint=fingerprint([case.to_dict() for case in cases]),
    )
    for case in cases:
        case_report = run_case(case)
        report.cases += 1
        report.divergences += len(case_report.divergences)
        report.violations += len(case_report.violations)
        report.degraded_answers += case_report.degraded_answers
        if case_report.failed:
            report.failed_cases.append(case.index)
        if keep_reports or case_report.failed:
            report.reports.append(case_report)
    return report


def case_failure(case: FuzzCase) -> str | None:
    """The shrinker's oracle: a one-line failure reason, or None if clean."""
    try:
        report = run_case(case)
    except BraidError as error:  # a crash is a failure too
        return f"crash: {type(error).__name__}: {error}"
    if report.violations:
        return f"invariant: {report.violations[0]}"
    if report.divergences:
        first = report.divergences[0]
        return f"{first.kind} at q{first.query_index}/{first.variant}"
    return None
