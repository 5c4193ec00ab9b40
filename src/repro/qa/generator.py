"""Seeded generation of random-but-reproducible fuzz cases.

One :class:`FuzzCase` is everything a differential run needs: base tables
(typed columns, concrete rows), a sequence of concrete CAQL queries, the
session advice (view specifications + an optional path expression), an
optional fault schedule for the remote link, and a cache capacity.  Every
artifact is derived from a single integer seed through one
``random.Random`` stream, and the whole case round-trips through plain
JSON (:meth:`FuzzCase.to_dict` / :meth:`FuzzCase.from_dict`), so a failing
case can be written to disk and replayed bit-for-bit.

Queries are generated *as source text* and parsed with
:func:`repro.caql.parser.parse_query` — the repro file stays readable and
the generator cannot produce anything the public query interface would
not accept.  Columns are typed (int, str, or float) and conditions/joins
only ever relate same-typed operands, so generated queries never trip
Python's mixed-type comparison errors; the deliberate mixed-type probes
live in the hand-written edge-case tests instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, asdict

from repro.advice.language import AdviceSet
from repro.advice.path_expression import QueryPattern, Sequence
from repro.advice.view_spec import annotate
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.remote.faults import FaultPolicy
from repro.logic.terms import Atom, Const, Term, Var
from repro.caql.ast import COMPARISON_PREDS, ConjunctiveQuery
from repro.caql.parser import parse_query
from repro.obs.export import fingerprint

#: Column type tags used in serialized cases.
COLUMN_TYPES = ("int", "str", "float")

#: Tables per case, columns per table and rows per table (inclusive ranges).
TABLES = (2, 4)
ARITY = (2, 3)
ROWS = (4, 20)
#: Value pool sizes per column type: ints ``0..9``, strings ``v0..v6``,
#: floats ``0.5..7.5``.
INT_DOMAIN = 10
STR_DOMAIN = 7
FLOAT_DOMAIN = 8
#: Probability a case carries session advice at all.
ADVICE_RATE = 0.6
#: Given advice, probability it includes a path expression.
PATH_RATE = 0.5


def encode_value(value) -> list:
    """A JSON-safe, type-preserving rendering of one column value.

    ``(type-name, repr)`` keeps ``1``, ``1.0``, and ``"1"`` distinct even
    though some of them ``repr``-collide with each other under other
    encodings — the same trick :func:`repro.core.rdi.canonical_bindings`
    uses for its ordering.
    """
    return [type(value).__name__, repr(value)]


def encode_rows(rows) -> list:
    """Rows as a sorted, canonical, JSON-safe structure (set semantics)."""
    return sorted([encode_value(v) for v in row] for row in rows)


@dataclass
class CaseConfig:
    """The knobs the fuzz profiles vary (all ranges inclusive); the fixed
    shape of a case is the module constants above."""

    #: Query templates per case (each one a named "view" the sequence
    #: re-instantiates, so exact hits and subsumption chains occur).
    views: tuple[int, int] = (2, 4)
    queries: tuple[int, int] = (4, 10)
    #: Probability a table gets a full-scan template (cache fodder that
    #: later join queries can partially match — the hybrid-plan driver).
    scan_rate: float = 0.4
    #: Cache capacities to draw from; small ones force eviction churn.
    cache_bytes_choices: tuple[int, ...] = (800, 3_000, 30_000, 4_000_000)
    #: Probability a case gets a fault schedule (0 = always-healthy link).
    fault_rate: float = 0.0
    #: Federated backends to spread tables over, as an inclusive range.
    #: ``(1, 1)`` (the default) keeps cases single-backend and draws
    #: nothing from the RNG, so pre-federation corpora are bit-identical.
    backends: tuple[int, int] = (1, 1)
    #: Probability a repeated view is re-asked as a provably-equivalent
    #: *variant spelling* (shuffled conjuncts, renamed variables,
    #: redundant predicates, respelled constants) of its previous source
    #: instead of verbatim or with fresh constants.  ``0.0`` (the
    #: default) draws nothing from the RNG, so pre-variants corpora are
    #: bit-identical.
    variant_rate: float = 0.0

    @classmethod
    def faulty(cls) -> "CaseConfig":
        """The PR-1 fault-schedule profile used by the degraded-mode fuzz."""
        return cls(fault_rate=0.6)

    @classmethod
    def federated(cls) -> "CaseConfig":
        """The federation profile: tables spread over 2–3 backends, so the
        federated variant exercises routing and cross-backend joins."""
        return cls(backends=(2, 3))

    @classmethod
    def churny(cls) -> "CaseConfig":
        """The eviction-churn profile: more views and queries over small
        caches, with scans on most tables so hybrid plans (and therefore
        operator-level intermediates — plain and semijoin-reduced remote
        fetches) form and then get evicted mid-sequence.  Exercises
        cost-based replacement and the pin rules under sustained
        pressure."""
        return cls(
            views=(3, 6),
            queries=(8, 16),
            scan_rate=0.7,
            cache_bytes_choices=(800, 1_200, 2_000, 3_000),
        )

    @classmethod
    def variants(cls) -> "CaseConfig":
        """The canonicalization profile: long sequences that re-ask each
        view as equivalent variant spellings, so the canonical cache tier
        (and its answer preservation) is exercised on most queries."""
        return cls(
            queries=(8, 16),
            variant_rate=0.6,
        )


@dataclass
class FuzzCase:
    """One self-contained differential-testing case (JSON round-trippable)."""

    seed: int
    index: int
    #: ``[{"name", "columns": [type tags], "rows": [[...], ...]}, ...]``
    tables: list[dict] = field(default_factory=list)
    #: Concrete CAQL query sources, in execution order.
    queries: list[str] = field(default_factory=list)
    #: General (uninstantiated) view definitions backing the advice.
    advice_views: list[str] = field(default_factory=list)
    #: One annotation pattern (``^?.`` characters) per advice view.
    advice_annotations: list[str] = field(default_factory=list)
    #: View names forming a path-expression sequence ([] = no path).
    path_views: list[str] = field(default_factory=list)
    #: :class:`FaultPolicy` kwargs, or None for a healthy link.
    fault: dict | None = None
    #: Query index at which the fault policy is installed (an outage that
    #: starts mid-sequence leaves a healthy prefix in the cache — the
    #: population degraded answers are served from).
    fault_onset: int = 0
    cache_bytes: int = 4_000_000
    #: Table name → backend name; {} = everything on one backend.  Only
    #: the federated differential variant consumes this.
    backends: dict = field(default_factory=dict)

    # -- serialization ---------------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCase":
        return cls(
            seed=data["seed"],
            index=data["index"],
            tables=[dict(t) for t in data["tables"]],
            queries=list(data["queries"]),
            advice_views=list(data.get("advice_views", ())),
            advice_annotations=list(data.get("advice_annotations", ())),
            path_views=list(data.get("path_views", ())),
            fault=dict(data["fault"]) if data.get("fault") else None,
            fault_onset=data.get("fault_onset", 0),
            cache_bytes=data.get("cache_bytes", 4_000_000),
            backends=dict(data.get("backends") or {}),
        )

    def fingerprint(self) -> str:
        """Stable identity of this case's full content."""
        return fingerprint(self.to_dict())

    # -- materialization --------------------------------------------------------------
    def build_tables(self) -> list[Relation]:
        """The base tables as concrete relations (rows become tuples)."""
        out = []
        for table in self.tables:
            columns = tuple(f"a{i}" for i in range(len(table["columns"])))
            schema = Schema(table["name"], columns)
            out.append(Relation(schema, [tuple(row) for row in table["rows"]]))
        return out

    def database(self) -> dict[str, Relation]:
        """Name → relation mapping (the oracle's lookup)."""
        return {relation.schema.name: relation for relation in self.build_tables()}

    def parsed_queries(self) -> list[ConjunctiveQuery]:
        return [parse_query(text) for text in self.queries]

    def build_advice(self) -> AdviceSet | None:
        """The session advice, or None when the case carries none."""
        if not self.advice_views:
            return None
        views = [
            annotate(parse_query(text), pattern)
            for text, pattern in zip(self.advice_views, self.advice_annotations)
        ]
        path = None
        if self.path_views:
            path = Sequence(
                tuple(QueryPattern(name) for name in self.path_views),
                lower=1,
                upper=None,
            )
        return AdviceSet.from_views(views, path_expression=path)

    def build_fault_policy(self) -> FaultPolicy | None:
        if not self.fault:
            return None
        return FaultPolicy(**self.fault)


def case_from_relations(
    relations: dict[str, "Relation"],
    queries: list[str],
    seed: int = 0,
    index: int = 0,
    **kwargs,
) -> FuzzCase:
    """A case built from concrete relations and query texts.

    Used to persist hand-constructed or property-test counterexamples as
    the same replayable repro files the fuzzer writes.  Column type tags
    are inferred from the first row (a column of an empty relation is
    tagged ``int``; the tag only matters to the generator, not to replay).
    """
    tables = []
    for name in sorted(relations):
        relation = relations[name]
        rows = relation.rows
        arity = relation.schema.arity
        columns = [
            type(rows[0][i]).__name__ if rows else "int" for i in range(arity)
        ]
        tables.append(
            {"name": name, "columns": columns, "rows": [list(r) for r in rows]}
        )
    return FuzzCase(seed=seed, index=index, tables=tables, queries=list(queries), **kwargs)


# -- the equivalent-query mutator -----------------------------------------------------


def render_query(query: ConjunctiveQuery) -> str:
    """A parsed query back as CAQL source (``parse_query``'s inverse).

    Comparison literals are rendered infix (``X =< 3``) — their parsed
    ``Atom`` form would print prefix, which the grammar rejects.
    """

    def term(t: Term) -> str:
        return str(t)

    parts = []
    for literal in query.literals:
        if literal.pred in COMPARISON_PREDS:
            left, right = literal.args
            parts.append(f"{term(left)} {literal.pred} {term(right)}")
        else:
            inner = ", ".join(term(a) for a in literal.args)
            parts.append(f"{literal.pred}({inner})")
    head = ", ".join(term(a) for a in query.answers)
    return f"{query.name}({head}) :- {', '.join(parts)}"


def _respell(value: object) -> object:
    """The float spelling of an int when exact (``3`` → ``3.0``)."""
    if type(value) is int and float(value) == value:
        return float(value)
    return value


def _weaker_bounds(literal: Atom, rng: random.Random) -> list[Atom]:
    """Redundant comparisons implied by ``literal`` (numeric only).

    * a strictly looser copy of a bound (``X < 5`` → also ``X < 8``);
    * the exclusion of a strict bound's own endpoint (``X < 5`` → also
      ``X \\= 5``);
    * the non-strict bounds an equality pin implies (``X = 5`` → also
      ``X >= 5`` / ``X =< 5``).

    Every emitted conjunct folds away during canonicalization, so the
    mutated query keeps both its answers and its canonical key.
    """
    left, right = literal.args
    if not isinstance(left, Var) or not isinstance(right, Const):
        return []
    value = right.value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return []
    slack = rng.randint(1, 4)
    out: list[Atom] = []
    if literal.pred in ("<", "=<"):
        out.append(Atom(literal.pred, (left, Const(value + slack))))
    elif literal.pred in (">", ">="):
        out.append(Atom(literal.pred, (left, Const(value - slack))))
    elif literal.pred == "=":
        out.append(Atom(rng.choice((">=", "=<")), (left, Const(value))))
    if literal.pred in ("<", ">"):
        out.append(Atom("\\=", (left, Const(value))))
    return out


def mutate_equivalent(source: str, rng: random.Random) -> str:
    """A provably-equivalent variant spelling of a CAQL query.

    Applies a seeded mix of answer-preserving, canonical-key-preserving
    rewrites: conjunct shuffling, bijective variable renaming, redundant
    comparison insertion (duplicates, looser bounds, pin-implied
    bounds), and constant respelling (``1`` → ``1.0``) in body
    positions.  Head constants are never respelled — they are output
    values, and the differential fuzzer encodes answers
    type-preservingly.  The result is returned as source text, so a
    mutated case stays JSON-round-trippable and replayable like any
    other.
    """
    query = parse_query(source)
    literals = list(query.literals)

    # Redundant comparison conjuncts (insertion points are drawn after
    # content, so the subsequent shuffle owns final placement).
    extra: list[Atom] = []
    for literal in literals:
        if literal.pred in COMPARISON_PREDS and rng.random() < 0.4:
            if rng.random() < 0.4:
                extra.append(literal)  # verbatim duplicate
            else:
                implied = _weaker_bounds(literal, rng)
                if implied:
                    extra.append(rng.choice(implied))
    literals.extend(extra)

    # Constant respelling in body positions (relation arguments and
    # comparison right-hand sides both become selection conditions).
    def respell_atom(literal: Atom) -> Atom:
        args = tuple(
            Const(_respell(a.value))
            if isinstance(a, Const) and rng.random() < 0.5
            else a
            for a in literal.args
        )
        return Atom(literal.pred, args, negated=literal.negated)

    literals = [respell_atom(l) if rng.random() < 0.6 else l for l in literals]

    # Conjunct shuffling.  Comparisons move freely; relation literals may
    # reorder only while each answer variable's *first-binding* literal
    # stays first among its binders — the projection takes its output
    # spelling from that representative occurrence, so moving it is not
    # answer-preserving on rows that join ==-equal values of different
    # types (1 vs 1.0), and correspondingly not key-preserving.
    relations = [l for l in literals if l.pred not in COMPARISON_PREDS]
    comparisons = [l for l in literals if l.pred in COMPARISON_PREDS]
    shuffled = list(relations)
    rng.shuffle(shuffled)

    def first_binder(sequence: list[Atom], var: Var) -> Atom:
        return next(l for l in sequence if var in l.variables())

    answer_vars = [t for t in query.answers if isinstance(t, Var)]
    if any(
        first_binder(shuffled, v) != first_binder(relations, v)
        for v in answer_vars
    ):
        shuffled = relations
    literals = list(shuffled)
    for comparison in comparisons:
        literals.insert(rng.randrange(len(literals) + 1), comparison)

    # Bijective variable renaming (never colliding with the originals).
    variables = sorted(
        {t for l in literals for t in l.args if isinstance(t, Var)}
        | {t for t in query.answers if isinstance(t, Var)},
        key=lambda v: v.name,
    )
    fresh = [f"W{k}" for k in range(len(variables))]
    rng.shuffle(fresh)
    renaming: dict[Var, Var] = {v: Var(n) for v, n in zip(variables, fresh)}

    def rename(term: Term) -> Term:
        return renaming.get(term, term) if isinstance(term, Var) else term

    literals = [
        Atom(l.pred, tuple(rename(a) for a in l.args), negated=l.negated)
        for l in literals
    ]
    answers = tuple(rename(a) for a in query.answers)
    return render_query(ConjunctiveQuery(query.name, answers, tuple(literals)))


class CaseGenerator:
    """Derives an unbounded stream of :class:`FuzzCase` from one seed."""

    def __init__(self, seed: int, config: CaseConfig | None = None):
        self.seed = seed
        self.config = config if config is not None else CaseConfig()

    # -- public API -------------------------------------------------------------------
    def generate(self, index: int) -> FuzzCase:
        """Case number ``index`` (depends only on seed, config, and index)."""
        rng = random.Random(self.seed * 1_000_003 + index)
        cfg = self.config
        tables = self._gen_tables(rng)
        templates = self._gen_templates(rng, cfg, tables)
        queries = self._gen_sequence(rng, cfg, templates)
        advice_views: list[str] = []
        annotations: list[str] = []
        path_views: list[str] = []
        if templates and rng.random() < ADVICE_RATE:
            for template in templates:
                advice_views.append(template["general"])
                annotations.append(
                    "".join(rng.choice("^?.") for _ in range(template["arity"]))
                )
            if rng.random() < PATH_RATE:
                path_views = [t["name"] for t in templates]
        fault = None
        fault_onset = 0
        if rng.random() < cfg.fault_rate:
            fault_onset = rng.randrange(0, max(len(queries), 1))
            fault = {
                "seed": rng.randrange(1 << 16),
                "transient_rate": round(rng.uniform(0.1, 0.5), 3),
                "permanent_rate": round(rng.uniform(0.0, 0.15), 3),
                "stall_rate": round(rng.uniform(0.0, 0.3), 3),
                "stall_seconds": 0.05,
                "disconnect_rate": round(rng.uniform(0.0, 0.3), 3),
                "disconnect_after_buffers": rng.randrange(0, 3),
            }
        backends: dict[str, str] = {}
        if cfg.backends[1] > 1:
            # Drawn only under a federated config, so single-backend
            # profiles keep their exact pre-federation RNG streams.
            count = rng.randint(*cfg.backends)
            names = [f"s{k}" for k in range(count)]
            backends = {table["name"]: rng.choice(names) for table in tables}
        return FuzzCase(
            seed=self.seed,
            index=index,
            tables=tables,
            queries=queries,
            advice_views=advice_views,
            advice_annotations=annotations,
            path_views=path_views,
            fault=fault,
            fault_onset=fault_onset,
            cache_bytes=rng.choice(list(cfg.cache_bytes_choices)),
            backends=backends,
        )

    def corpus(self, count: int, start: int = 0) -> list[FuzzCase]:
        """Cases ``start .. start+count-1`` (each independent of the rest)."""
        return [self.generate(start + i) for i in range(count)]

    # -- values ------------------------------------------------------------------------
    @staticmethod
    def _pool(kind: str) -> list:
        if kind == "int":
            return list(range(INT_DOMAIN))
        if kind == "str":
            return [f"v{k}" for k in range(STR_DOMAIN)]
        return [k + 0.5 for k in range(FLOAT_DOMAIN)]

    @staticmethod
    def _render(value) -> str:
        """A constant as CAQL source (strings are lowercase atoms)."""
        return value if isinstance(value, str) else repr(value)

    # -- tables ------------------------------------------------------------------------
    def _gen_tables(self, rng: random.Random) -> list[dict]:
        count = rng.randint(*TABLES)
        tables = []
        for i in range(count):
            arity = rng.randint(*ARITY)
            columns = [rng.choice(COLUMN_TYPES) for _ in range(arity)]
            pools = [self._pool(kind) for kind in columns]
            n_rows = rng.randint(*ROWS)
            seen = set()
            rows = []
            for _ in range(n_rows):
                row = tuple(rng.choice(pool) for pool in pools)
                if row not in seen:  # base tables are sets too
                    seen.add(row)
                    rows.append(list(row))
            tables.append({"name": f"b{i}", "columns": columns, "rows": rows})
        return tables

    # -- query templates ---------------------------------------------------------------
    def _gen_templates(
        self, rng: random.Random, cfg: CaseConfig, tables: list[dict]
    ) -> list[dict]:
        count = rng.randint(*cfg.views)
        templates = []
        # Full-scan templates first: once cached, they partially cover
        # later join queries over the same table (hybrid plans, semijoin).
        for table in tables:
            if len(templates) >= count:
                break
            if rng.random() < cfg.scan_rate:
                templates.append(self._scan_template(table, f"d{len(templates)}"))
        attempts = 0
        while len(templates) < count and attempts < count * 4:
            attempts += 1
            template = self._gen_template(rng, tables, f"d{len(templates)}")
            if template is not None:
                templates.append(template)
        return templates

    @staticmethod
    def _scan_template(table: dict, name: str) -> dict:
        variables = [f"V{i}" for i in range(len(table["columns"]))]
        body = f"{table['name']}({', '.join(variables)})"
        return {
            "name": name,
            "arity": len(variables),
            "general": f"{name}({', '.join(variables)}) :- {body}",
            "holes": [],
        }

    def _gen_template(
        self, rng: random.Random, tables: list[dict], name: str
    ) -> dict | None:
        """One named query shape: fixed body, plus typed "holes" whose
        constants are re-drawn at every instantiation (the repetition is
        what exercises exact hits, subsumption, and generalization)."""
        n_occurrences = 1 if len(tables) < 2 or rng.random() < 0.5 else 2
        occurrences = rng.sample(tables, n_occurrences)

        # Assign one variable per column; a two-occurrence template joins
        # on a same-typed column pair when one exists.
        var_names: list[list[str]] = []
        var_types: dict[str, str] = {}
        counter = 0
        for table in occurrences:
            names = []
            for kind in table["columns"]:
                var = f"V{counter}"
                counter += 1
                names.append(var)
                var_types[var] = kind
            var_names.append(names)
        if n_occurrences == 2:
            pairs = [
                (i, j)
                for i, left in enumerate(occurrences[0]["columns"])
                for j, right in enumerate(occurrences[1]["columns"])
                if left == right
            ]
            if not pairs:
                return None  # no same-typed join column: skip this shape
            i, j = rng.choice(pairs)
            dropped = var_names[1][j]
            var_types.pop(dropped)
            var_names[1][j] = var_names[0][i]

        # Occasionally pin an argument position to a constant.
        literals = []
        for table, names in zip(occurrences, var_names):
            args = []
            for position, var in enumerate(names):
                shared = sum(n.count(var) for n in var_names) > 1
                if not shared and rng.random() < 0.15:
                    pool = self._pool(table["columns"][position])
                    args.append(self._render(rng.choice(pool)))
                    var_types.pop(var, None)
                else:
                    args.append(var)
            literals.append(f"{table['name']}({', '.join(args)})")

        candidates = sorted(var_types)
        if not candidates:
            return None  # every position got pinned: not a useful shape
        head = rng.sample(candidates, rng.randint(1, len(candidates)))

        # Fixed conditions stay in the general form; holes do not.
        fixed: list[str] = []
        holes: list[dict] = []
        for var in candidates:
            if rng.random() >= 0.45:
                continue
            kind = var_types[var]
            op = rng.choice(("<", "=<", ">", ">=", "=") if kind != "str" else ("=", "<", ">"))
            condition = {"var": var, "op": op, "type": kind}
            if rng.random() < 0.6:
                holes.append(condition)
            else:
                pool = self._pool(kind)
                fixed.append(f"{var} {op} {self._render(rng.choice(pool))}")

        body = ", ".join(literals + fixed)
        general = f"{name}({', '.join(head)}) :- {body}"
        return {
            "name": name,
            "arity": len(head),
            "general": general,
            "holes": holes,
        }

    # -- the query sequence ------------------------------------------------------------
    def _gen_sequence(
        self, rng: random.Random, cfg: CaseConfig, templates: list[dict]
    ) -> list[str]:
        if not templates:
            return []
        count = rng.randint(*cfg.queries)
        queries: list[str] = []
        previous: dict[str, str] = {}
        for _ in range(count):
            template = rng.choice(templates)
            name = template["name"]
            if (
                cfg.variant_rate > 0  # gate first: profiles without
                # variants draw nothing extra and keep their exact
                # pre-variants RNG streams (same convention as backends)
                and name in previous
                and rng.random() < cfg.variant_rate
            ):
                # An equivalent variant spelling of the last ask: the
                # canonical cache tier must serve it with identical rows.
                queries.append(mutate_equivalent(previous[name], rng))
                continue
            if name in previous and rng.random() < 0.25:
                queries.append(previous[name])  # verbatim repeat: exact hit
                continue
            extra = [
                f"{h['var']} {h['op']} {self._render(rng.choice(self._pool(h['type'])))}"
                for h in template["holes"]
            ]
            text = template["general"]
            if extra:
                text = f"{text}, {', '.join(extra)}"
            previous[name] = text
            queries.append(text)
        return queries
