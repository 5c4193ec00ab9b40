"""E9 — the interpreted–compiled range (Section 2, [OHAR89b]).

"Despite implicit assumptions and explicit claims to the contrary in the
literature, it is simply not the case that more fully compiled systems are
always preferable."

Run the same AI queries under the three strategies, in two consumption
modes (all solutions vs first solution).

Expected shape: for *all solutions* of a join-heavy query, conjunction
compilation issues far fewer CAQL queries than pure interpretation and the
compiled strategy is competitive; for a *single solution* of a recursive
query, the interpretive strategies win on tuples shipped because they stop
early — the crossover the paper argues for.
"""

from __future__ import annotations

import pytest

from repro.braid import BraidConfig, BraidSystem
from repro.workloads.genealogy import genealogy

from benchmarks.harness import format_table, record

STRATEGIES = ("interpreted", "conjunction", "compiled")


def run(strategy: str, query: str, all_solutions: bool) -> dict:
    system = BraidSystem.from_workload(
        genealogy(generations=5, branching=3, roots=1, seed=53),
        BraidConfig(strategy=strategy),
    )
    if all_solutions:
        system.ask_all(query)
    else:
        system.ask_first(query)
    return {
        "caql": system.metrics.get("ie.caql_queries"),
        "requests": system.metrics.get("remote.requests"),
        "shipped": system.metrics.get("remote.tuples_shipped"),
        "time": system.clock.now,
    }


@pytest.fixture(scope="module")
def results():
    out = {}
    for strategy in STRATEGIES:
        out[(strategy, "all")] = run(strategy, "parent_of_minor(X)", True)
        out[(strategy, "first")] = run(strategy, "ancestor(p0, W)", False)
    return out


def test_report(results):
    rows = []
    for mode, query in (("all", "parent_of_minor(X)"), ("first", "ancestor(p0, W)")):
        for strategy in STRATEGIES:
            r = results[(strategy, mode)]
            rows.append(
                [mode, strategy, r["caql"], r["requests"], r["shipped"], r["time"]]
            )
    headers = ["mode", "strategy", "CAQL queries", "remote reqs", "tuples shipped", "sim time (s)"]
    record(
        "E9",
        "three strategies along the I-C range, two consumption modes",
        format_table(headers, rows),
        data={"headers": headers, "rows": rows},
        notes=(
            "Claim: no point on the range always wins — compiled/conjunction win "
            "all-solutions joins; interpretive wins first-solution recursion."
        ),
    )


def test_interpreted_floods_caql_queries(results):
    assert results[("interpreted", "all")]["caql"] > 3 * results[("conjunction", "all")]["caql"]


def test_conjunction_compiles_joins(results):
    assert results[("conjunction", "all")]["caql"] <= 2


def test_compiled_wins_nothing_for_first_solution(results):
    # Compiled computes everything regardless; interpretive stops early.
    assert (
        results[("interpreted", "first")]["shipped"]
        < results[("compiled", "first")]["shipped"]
    )


def test_interpretive_first_solution_is_fast(results):
    assert (
        results[("conjunction", "first")]["time"]
        <= results[("compiled", "first")]["time"]
    )


def test_no_strategy_dominates_everywhere(results):
    """The paper's core claim: compare each pair across both modes."""
    def wins(a, b, mode, measure):
        return results[(a, mode)][measure] < results[(b, mode)][measure]

    # Conjunction beats interpreted on all-solutions time...
    assert wins("conjunction", "interpreted", "all", "time")
    # ...but compiled loses to an interpretive strategy somewhere:
    assert wins("conjunction", "compiled", "first", "shipped") or wins(
        "interpreted", "compiled", "first", "shipped"
    )
