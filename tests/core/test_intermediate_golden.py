"""Golden intermediate registrations: the route may change, the stores may not.

Every ``Cache.store(..., kind="intermediate")`` the Execution Monitor makes
while running a fixed corpus — the first 25 cases of the churny and the
federated fuzz profiles at seed 0, then the semijoin-widening drill-down —
is logged as operator, canonical key, projection, row count and
``repr(derivation_seconds)``.  The log hashes to a digest recorded **before
the monitor's three registration routes became one offer**; a registration
gained, lost, reordered, re-keyed or re-priced changes it.
Eviction order changes it too (what is resident decides what a later plan
registers): the digest was refrozen once, when replacement became
GreedyDual, where the first event to differ is a victim.

It was refrozen a second time, from the change that stopped storing what
the cache can re-derive: an eager cache-full answer is no longer stored,
and a cache part is no longer registered as a ``select-project``
intermediate.  That drops all 32 ``select-project`` entries, and one churny
query whose hybrid plan rode a stored derived answer is now fetched whole:
its two ``remote-fetch`` and one ``semijoin-fetch`` registrations become
one ``remote-fetch`` (245 -> 211).

It was refrozen a third time, from the change that stores a whole-query
fetch once: the one part of a plan that ships the whole query is no longer
registered — the CMS stores the answer itself, as its view, at the fetch's
cost.  The new log is the old one with 169 ``remote-fetch`` entries taken
out and nothing else moved (checked entry by entry): 211 -> 42.

It was refrozen a fourth time, when derivation lineage was deleted: a
registration no longer names parents, so the log lost that field.  The
log taken before that change, with its parents field struck out, hashes
to the new digest: no registration moved.
"""

import hashlib

import pytest

from repro.caql.parser import parse_query
from repro.caql.psj import parse_column
from repro.core.cache import Cache
from repro.core.canonical import canonical_key
from repro.qa import CaseConfig, CaseGenerator, run_case

from tests.core.test_semijoin_widening import DRILL, SELECT, TIGHTER, build_cms

CASES_PER_PROFILE = 25
REGISTRATIONS = 42
LOG_SHA256 = "e366f726c205586062cde4ddff1189ba8b11ca48da36f1e9538f887f8dc4b34c"


def _widening_kinds(definition) -> set[str]:
    """Which widenings a semijoin-fetch definition's projection carries.

    ``equality``: a column equal, by a cross-occurrence condition, to an
    earlier projected column (the source side of a binding).  ``functional``:
    a further column of the same source occurrence (carried through the
    binding key's functional dependency)."""
    equal = {
        frozenset((c.left.name, c.right.name))
        for c in definition.conditions
        if c.op == "=" and c.is_col_col()
    }
    kinds: set[str] = set()
    equality_tags: set[str] = set()
    projection = list(definition.projection)
    for index, column in enumerate(projection):
        tag = parse_column(column)[0]
        if any(
            frozenset((column, earlier)) in equal
            and parse_column(earlier)[0] != tag
            for earlier in projection[:index]
        ):
            kinds.add("equality")
            equality_tags.add(tag)
        elif tag in equality_tags:
            kinds.add("functional")
    return kinds


@pytest.fixture()
def registrations(monkeypatch):
    """Run the corpus with ``Cache.store`` wrapped; yield the log and the
    widening kinds seen."""
    log: list[tuple] = []
    widenings: set[str] = set()
    store = Cache.store

    def logged(self, definition, relation, *args, **kwargs):
        if kwargs.get("kind") == "intermediate":
            operator = kwargs.get("operator", "")
            log.append(
                (
                    operator,
                    canonical_key(definition),
                    tuple(definition.projection),
                    len(relation),
                    repr(kwargs.get("derivation_seconds", 0.0)),
                )
            )
            if operator == "semijoin-fetch":
                widenings.update(_widening_kinds(definition))
        return store(self, definition, relation, *args, **kwargs)

    monkeypatch.setattr(Cache, "store", logged)
    for config in (CaseConfig.churny(), CaseConfig.federated()):
        for case in CaseGenerator(0, config).corpus(CASES_PER_PROFILE):
            run_case(case)
    cms = build_cms(intermediates=True)
    for text in (SELECT, DRILL, TIGHTER):
        cms.query(parse_query(text)).fetch_all()
    return log, widenings


def test_registrations_are_the_parents_byte_for_byte(registrations):
    log, widenings = registrations
    operators = {entry[0] for entry in log}
    # A cache part is never registered: only fetched parts are.
    assert operators == {"remote-fetch", "semijoin-fetch"}
    assert widenings == {"equality", "functional"}
    digest = hashlib.sha256(repr(log).encode()).hexdigest()
    assert (len(log), digest) == (REGISTRATIONS, LOG_SHA256)
