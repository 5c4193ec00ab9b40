"""The six workloads: what each builds, how it is driven, how it is checked.

Every workload runs the *shipped defaults*: no ``CMSFeatures`` or
``PlannerFeatures`` flag is passed anywhere in this file, and only façade
API is driven (``BraidServer.submit``/``step`` and ``Request`` fields,
``build_federation(...).cms()`` + ``query(...).fetch_all()``,
``BraidSystem.ask_all``).  Flipping a default therefore shows up as a
gain or a loss, and nobody can win by toggling.

Load generation is one process, one thread.  The four CMS workloads use a
closed loop of ``CLIENTS`` sessions on one server, each submitting its next
query the moment its previous one completes; ``federated_join`` and
``ie_session`` have one client.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from repro.braid import BraidConfig, BraidSystem
from repro.caql.eval import evaluate_conjunctive
from repro.caql.parser import parse_query
from repro.common.clock import CostProfile
from repro.common.errors import BraidError
from repro.federation import BackendSpec, build_federation
from repro.logic.kb import KnowledgeBase
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.server.braid_server import BraidServer, ServerConfig

from benchmarks.wall import gen

CLIENTS = 4


@dataclass
class Outcome:
    """What driving a stream produced, op by op."""

    #: Submit-to-observed-completion wall seconds.
    latencies: list[float]
    #: Seconds from the start of the timed region to each op's completion.
    finished: list[float]
    #: Result rows (solution dicts on ``ie_session``); None when the op
    #: raised, was refused, or came back degraded.
    answers: list[list | None]
    wall_s: float


def _relation(table: gen.Table) -> Relation:
    return Relation(Schema(table.name, table.attributes, key=table.key), table.rows)


def _parsed(ops: tuple[gen.Op, ...]) -> list:
    """Parse each distinct text once: re-asks reuse the same query object."""
    cache: dict[str, object] = {}
    queries = []
    for op in ops:
        query = cache.get(op.text)
        if query is None:
            query = cache[op.text] = parse_query(op.text)
        queries.append(query)
    return queries


# -- correctness ----------------------------------------------------------------------


def canonical_answers(
    ops: tuple[gen.Op, ...], answers: list[list | None], key=sorted
) -> tuple[dict[int, list], set[int]]:
    """Fold per-op answers into one canonical row list per distinct answer.

    Returns ``(by_answer, bad)``: the first op of each answer id sets the
    canonical (sorted) rows; ``bad`` holds the index of every op that
    failed or that disagrees with its id's canonical rows.
    """
    by_answer: dict[int, list] = {}
    bad: set[int] = set()
    for index, (op, rows) in enumerate(zip(ops, answers)):
        if rows is None:
            bad.add(index)
            continue
        ordered = key(rows)
        if by_answer.setdefault(op.answer, ordered) != ordered:
            bad.add(index)
    return by_answer, bad


def answer_digest(by_answer: dict[int, list]) -> str:
    sha = hashlib.sha256()
    for answer in sorted(by_answer):
        sha.update(repr((answer, by_answer[answer])).encode())
    return sha.hexdigest()


def oracle_failures(
    ops: tuple[gen.Op, ...], by_answer: dict[int, list], oracle: dict[int, list]
) -> set[int]:
    """Indexes of the ops whose canonical answer differs from the oracle's."""
    wrong = {a for a, rows in oracle.items() if a in by_answer and by_answer[a] != rows}
    return {index for index, op in enumerate(ops) if op.answer in wrong}


def solution_key(solutions: list[dict]) -> list:
    """Order-free form of an AI query's solution set."""
    return sorted(sorted(s.items()) for s in solutions)


def cms_oracle(inputs: gen.Inputs, wanted: set[int]) -> dict[int, list]:
    """Direct evaluation of each wanted distinct query over the base tables."""
    tables = {t.name: _relation(t) for t in inputs.tables}

    def rows(text: str) -> list:
        return sorted(evaluate_conjunctive(parse_query(text), tables.__getitem__).rows)

    return {answer: rows(inputs.distinct[answer]) for answer in sorted(wanted)}


def ie_oracle(inputs: gen.Inputs, wanted: set[int]) -> dict[int, list]:
    """A loose-coupling system (no CMS) answering a fixed 1-in-10 sample."""
    loose = BraidSystem(
        [_relation(t) for t in inputs.tables], _knowledge_base(), BraidConfig(bridge="loose")
    )
    return {
        answer: solution_key(loose.ask_all(inputs.distinct[answer]))
        for answer in sorted(wanted)
        if answer % 10 == 0
    }


# -- the three façades -----------------------------------------------------------------


class ServerRig:
    """One ``BraidServer`` and a closed loop of ``CLIENTS`` sessions."""

    facade = "server"
    answer_key = staticmethod(sorted)
    oracle = staticmethod(cms_oracle)

    def __init__(self, inputs: gen.Inputs, cache_bytes: int, tracing: bool = False):
        self.server = BraidServer(
            [_relation(t) for t in inputs.tables],
            ServerConfig(cache_capacity_bytes=cache_bytes, tracing=tracing),
        )
        self.sessions = [f"c{i}" for i in range(CLIENTS)]
        for name in self.sessions:
            self.server.open_session(name)
        self.metrics = self.server.metrics
        self.clock = self.server.clock
        self.cache = self.server.cache
        self.warm = _parsed(inputs.warm)
        self.ops = _parsed(inputs.ops)

    def drive(self, queries: list, recorder=None) -> Outcome:
        server = self.server
        total = len(queries)
        latencies = [0.0] * total
        finished = [0.0] * total
        answers: list[list | None] = [None] * total
        #: Per session: [request, op index, submit time, execute step seen].
        slots: list[list | None] = [None] * len(self.sessions)
        next_op = 0
        started = perf_counter()

        def submit(client: int) -> None:
            nonlocal next_op
            slots[client] = None
            while next_op < total:
                index = next_op
                next_op += 1
                if recorder is not None:
                    recorder.op = index
                at = perf_counter()
                try:
                    request = server.submit(self.sessions[client], queries[index])
                except BraidError:
                    now = perf_counter()
                    latencies[index], finished[index] = now - at, now - started
                    continue  # refused: counted as failed, client moves on
                slots[client] = [request, index, at, False]
                return

        for client in range(len(slots)):
            submit(client)
        while any(slots):
            root = recorder.n if recorder is not None else 0
            if not server.step():
                break  # nothing runnable yet requests pending: they count as failed
            for client, slot in enumerate(slots):
                if slot is None:
                    continue
                request, index, at, seen = slot
                if recorder is not None and (
                    request.finished or (not seen and request.started_at is not None)
                ):
                    slot[3] = True
                    recorder.ops[root] = index  # this step's root span served op ``index``
                if request.finished:
                    now = perf_counter()
                    latencies[index], finished[index] = now - at, now - started
                    if request.error is None and not request.degraded:
                        answers[index] = request.rows
                    submit(client)
        return Outcome(latencies, finished, answers, perf_counter() - started)


class FederationRig:
    """suppliers/parts/shipments over three backends, one client."""

    facade = "federation"
    answer_key = staticmethod(sorted)
    oracle = staticmethod(cms_oracle)

    def __init__(self, inputs: gen.Inputs, cache_bytes: int):
        supplier, part, shipment = (_relation(t) for t in inputs.tables)
        self.federation = build_federation(
            [
                BackendSpec("alpha", tables=(supplier,), engine="sqlite"),
                BackendSpec("beta", tables=(part,), profile=CostProfile().scaled(1.4)),
                BackendSpec("gamma", tables=(shipment,), profile=CostProfile().scaled(0.7)),
            ]
        )
        self.cms = self.federation.cms(capacity_bytes=cache_bytes)
        self.cms.begin_session()
        self.metrics = self.federation.metrics
        self.clock = self.federation.clock
        self.cache = self.cms.cache
        self.warm = _parsed(inputs.warm)
        self.ops = _parsed(inputs.ops)

    def drive(self, queries: list, recorder=None) -> Outcome:
        cms = self.cms

        def ask(query) -> list | None:
            stream = cms.query(query)
            rows = stream.fetch_all()
            return None if stream.degraded else rows

        return _drive_one_client(ask, queries, recorder)


def _drive_one_client(ask, items: list, recorder) -> Outcome:
    """One client, one op at a time; an op that raises is a failed op."""
    latencies, finished = [], []
    answers: list[list | None] = []
    started = perf_counter()
    for index, item in enumerate(items):
        if recorder is not None:
            recorder.op = index
        at = perf_counter()
        try:
            answers.append(ask(item))
        except BraidError:
            answers.append(None)
        done = perf_counter()
        latencies.append(done - at)
        finished.append(done - started)
    return Outcome(latencies, finished, answers, perf_counter() - started)


def _knowledge_base() -> KnowledgeBase:
    kb = KnowledgeBase()
    for pred, arity in gen.GENEALOGY_DATABASE:
        kb.declare_database(pred, arity)
    kb.add_rules(gen.GENEALOGY_RULES)
    return kb


class IERig:
    """The paper's real client: an inference engine over a one-session CMS."""

    facade = "ie"
    answer_key = staticmethod(solution_key)
    oracle = staticmethod(ie_oracle)

    def __init__(self, inputs: gen.Inputs, cache_bytes: int):
        self.system = BraidSystem(
            [_relation(t) for t in inputs.tables],
            _knowledge_base(),
            BraidConfig(cache_capacity_bytes=cache_bytes),
        )
        self.metrics = self.system.metrics
        self.clock = self.system.clock
        self.cache = self.system.server.cache
        self.warm = [op.text for op in inputs.warm]
        self.ops = [op.text for op in inputs.ops]

    def drive(self, goals: list, recorder=None) -> Outcome:
        return _drive_one_client(self.system.ask_all, goals, recorder)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload at ``--scale 1``."""

    name: str
    why: str
    rig: type
    cache_bytes: int
    #: Ops per episode, sized so five episodes' timed regions add up to
    #: about ``run_seconds`` on the reference sandbox and a whole run, with
    #: its five set-ups, stays near 20 s (the driver makes 136 runs).
    ops: int
    inputs: Callable[..., gen.Inputs]
    #: Distinct query shapes re-asked (pool workloads only).
    pool: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hot_repeat",
            "Zipf re-asks of a warmed 120-shape pool that fits the cache: ~100 % exact "
            "hits, so only per-query fixed cost (server, cms, caql, cache lookup) is left",
            ServerRig, 64_000_000, 12_000, gen.hot_repeat, pool=120,
        ),
        Workload(
            "variant_respell",
            "same pool and hit ratio as hot_repeat but every op is a fresh equivalent "
            "spelling, so the canonicalizer runs cold on every op and almost never next door",
            ServerRig, 64_000_000, 5_000, gen.variant_respell, pool=120,
        ),
        Workload(
            "drill_subsume",
            "never-repeating narrow drills inside 20 cached wide views: every op is a "
            "subsumption hit plus a local derivation; the remote DBMS is idle",
            ServerRig, 64_000_000, 190, gen.drill_subsume,
        ),
        Workload(
            "churn_scan",
            "never-repeating wide scans against a 150 KB cache: ~90 % misses and steady "
            "eviction, so rdi, the simulated remote engine and cache writes dominate",
            ServerRig, 150_000, 130, gen.churn_scan,
        ),
        Workload(
            "federated_join",
            "one- to three-backend spanning queries over sqlite + two profiled backends: "
            "the only workload through federation partitioning, scatter and gather",
            FederationRig, 300_000, 110, gen.federated_join,
        ),
        Workload(
            "ie_session",
            "AI queries from the inference engine over genealogy: the only workload with "
            "advice, prefetch and lazy streams, and the only one where ie/logic time counts",
            IERig, 4_000_000, 300, gen.ie_session,
        ),
    )
}


def make_inputs(workload: Workload, seed: int, scale: float) -> gen.Inputs:
    """The workload's inputs for ``seed`` at ``scale``: op count and pool
    size scale, table sizes never do."""
    ops = max(8, round(workload.ops * scale))
    if workload.pool:
        return workload.inputs(seed, max(12, round(workload.pool * scale)), ops)
    return workload.inputs(seed, ops)
