"""The PSJ (project–select–join) canonical form of CAQL queries.

Section 5.3.2 of the paper: "We limit Q and E_i's to logic expressions
equivalent to PSJ expressions (as in [LARS85])".  Every conjunctive CAQL
query is normalized into this form, which is what the subsumption
algorithm, the planner, and the remote translator all consume:

* an ordered list of **relation occurrences** (the same base relation may
  occur several times, each under a distinct tag ``t0, t1, ...``);
* a conjunction of **conditions** over *qualified columns* — strings of the
  form ``"t1.c2"`` meaning "argument position 2 of occurrence t1" — and
  literal values; and
* an ordered **projection** of qualified columns (or pinned constants, for
  instantiated answer positions).

Shared variables become column-equality conditions; constants in argument
positions become column-literal equality conditions.  This makes structural
reasoning (implication, subsumption, generalization) purely syntactic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from repro.common.errors import TranslationError
from repro.logic.terms import Atom, Const, Term
from repro.relational.expressions import FLIPPED, Col, Comparison, Lit, holds

#: CAQL comparison predicate -> condition operator.
_OP_MAP = {"<": "<", ">": ">", "=<": "<=", ">=": ">=", "=": "=", "\\=": "!="}

_COLUMN_RE = re.compile(r"^(t\d+)\.c(\d+)$")


def column(tag: str, position: int) -> str:
    """The qualified column name for argument ``position`` of ``tag``."""
    return f"{tag}.c{position}"


def parse_column(name: str) -> tuple[str, int]:
    """Inverse of :func:`column`."""
    match = _COLUMN_RE.match(name)
    if match is None:
        raise TranslationError(f"not a qualified column: {name!r}")
    return match.group(1), int(match.group(2))


@dataclass(frozen=True, slots=True)
class Occurrence:
    """One occurrence of a base relation in a query."""

    tag: str
    pred: str
    arity: int

    def columns(self) -> list[str]:
        """The qualified column names of this occurrence, in position order."""
        return [column(self.tag, i) for i in range(self.arity)]

    def __str__(self) -> str:
        return f"{self.tag}:{self.pred}/{self.arity}"


@dataclass(frozen=True, slots=True)
class ConstProj:
    """A projection entry pinned to a constant (instantiated answer slot)."""

    value: object

    def __str__(self) -> str:
        return repr(self.value)


#: A projection entry: a qualified column name or a pinned constant.
ProjEntry = str | ConstProj


def projection_entries(
    projection: tuple[ProjEntry, ...], schema, partial: bool = False
) -> list[tuple[str, object]]:
    """``projection`` as the row builder's entries
    (:func:`repro.relational.operators.entry_rows`) over rows of
    ``schema``: a pinned constant inserts its value, a named column takes
    its position.  With ``partial`` a column ``schema`` lacks inserts
    ``None`` (it never arrived); otherwise it is a bug and raises."""
    return [
        ("const", entry.value)
        if isinstance(entry, ConstProj)
        else ("const", None)
        if partial and entry not in schema.attributes
        else ("col", schema.position(entry))
        for entry in projection
    ]


@dataclass(frozen=True)
class PSJQuery:
    """A normalized project–select–join query."""

    name: str
    occurrences: tuple[Occurrence, ...]
    conditions: tuple[Comparison, ...]
    projection: tuple[ProjEntry, ...]
    #: Mapping variable name -> all qualified columns it binds (first is the
    #: representative used in conditions/projection).  Derived data kept for
    #: generalization and diagnostics.
    var_columns: tuple[tuple[str, tuple[str, ...]], ...] = ()
    #: True when constant folding proved the query empty.
    unsatisfiable: bool = False

    def __post_init__(self) -> None:
        if len({o.tag for o in self.occurrences}) != len(self.occurrences):
            tags = [o.tag for o in self.occurrences]
            raise TranslationError(f"duplicate occurrence tags in {self.name}: {tags}")

    # -- structure ------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of projection entries."""
        return len(self.projection)

    def occurrence(self, tag: str) -> Occurrence:
        """The occurrence tagged ``tag``; raises when absent."""
        for occ in self.occurrences:
            if occ.tag == tag:
                return occ
        raise TranslationError(f"no occurrence tagged {tag!r} in {self.name}")

    def predicates(self) -> list[str]:
        """Base-relation names, one per occurrence, in order."""
        return [o.pred for o in self.occurrences]

    def all_columns(self) -> list[str]:
        """Every qualified column of every occurrence."""
        out = []
        for occ in self.occurrences:
            out.extend(occ.columns())
        return out

    def column_conditions(self, tag: str) -> list[Comparison]:
        """Conditions that only mention columns of occurrence ``tag``."""
        prefix = tag + "."
        out = []
        for condition in self.conditions:
            cols = condition.columns()
            if cols and all(c.startswith(prefix) for c in cols):
                out.append(condition)
        return out

    def canonical_key(self) -> tuple:
        """A hashable key equal for structurally identical queries.

        Tags are already assigned in occurrence order, so two queries built
        from the same literal sequence get the same key.  Used by
        exact-match result caching.  Rendered once per instance: the class
        is frozen, so the key is kept in the instance dict (where ``==``,
        ``hash``, ``repr`` and ``dataclasses.replace`` never look) and a
        stored definition pays for it on its first comparison only.
        """
        carried = self.__dict__
        key = carried.get("_structural_key")
        if key is None:
            key = carried["_structural_key"] = _structural_key(self)
        return key

    def __str__(self) -> str:
        occs = ", ".join(str(o) for o in self.occurrences)
        conds = " & ".join(str(c) for c in self.conditions) or "true"
        proj = ", ".join(str(p) for p in self.projection)
        return f"PSJ {self.name}: [{occs}] where {conds} project ({proj})"


def _structural_key(query: PSJQuery) -> tuple:
    """Render :meth:`PSJQuery.canonical_key` (its one uncached step)."""
    return (
        tuple((o.pred, o.arity) for o in query.occurrences),
        tuple(sorted(str(c.normalized()) for c in query.conditions)),
        tuple(str(p) for p in query.projection),
    )


@lru_cache(maxsize=4096)
def _occurrence(index: int, pred: str, arity: int) -> tuple[Occurrence, tuple[Col, ...]]:
    """The ``index``-th occurrence of ``pred/arity`` and its argument
    columns.  Both are frozen, so every translation shares one of each;
    there are only as many as relations times body positions."""
    tag = f"t{index}"
    return Occurrence(tag, pred, arity), tuple(
        Col(column(tag, position)) for position in range(arity)
    )


def _unbound(role: str, term: Term, name: str):
    raise TranslationError(
        f"{role} variable {term} is not bound by any relation literal in {name}"
    )


def psj_from_literals(
    name: str,
    relation_literals: list[Atom],
    comparison_literals: list[Atom],
    answers: tuple[Term, ...],
) -> PSJQuery:
    """Normalize a conjunction of literals into PSJ form.

    ``relation_literals`` become occurrences; shared variables and constant
    arguments become conditions; ``comparison_literals`` become conditions
    through variable representatives; ``answers`` become the projection.
    Every condition is emitted already in :meth:`Comparison.normalized`
    form (the constant on the right, column-column operands in name order),
    so no second pass rebuilds them.
    """
    occurrences: list[Occurrence] = []
    conditions: list[Comparison] = []
    #: Variable name -> its representative column (the first it binds).
    representative: dict[str, Col] = {}
    #: Variable name -> every qualified column it binds, in order.
    all_columns: dict[str, list[str]] = {}
    unsatisfiable = False

    for index, literal in enumerate(relation_literals):
        args = literal.args
        occurrence, columns = _occurrence(index, literal.pred, len(args))
        occurrences.append(occurrence)
        for col, arg in zip(columns, args):
            if isinstance(arg, Const):
                conditions.append(Comparison(col, "=", Lit(arg.value)))
                continue
            rep = representative.get(arg.name)
            if rep is None:
                representative[arg.name] = col
                all_columns[arg.name] = [col.name]
                continue
            # ``t10.c0`` sorts before ``t9.c1``: a later column can be the
            # smaller name.
            if col.name < rep.name:
                conditions.append(Comparison(col, "=", rep))
            else:
                conditions.append(Comparison(rep, "=", col))
            all_columns[arg.name].append(col.name)

    for literal in comparison_literals:
        op = _OP_MAP.get(literal.pred)
        if op is None or len(literal.args) != 2:
            raise TranslationError(f"{literal} is not a binary comparison in {name}")
        left, right = literal.args
        if isinstance(left, Const):
            if isinstance(right, Const):
                # Constant-fold: either trivially true (drop) or the whole
                # query is unsatisfiable.
                if not holds(left.value, op, right.value):
                    unsatisfiable = True
                continue
            # The constant goes on the right.
            col = representative.get(right.name) or _unbound("comparison", right, name)
            conditions.append(Comparison(col, FLIPPED[op], Lit(left.value)))
            continue
        col = representative.get(left.name) or _unbound("comparison", left, name)
        if isinstance(right, Const):
            conditions.append(Comparison(col, op, Lit(right.value)))
            continue
        other = representative.get(right.name) or _unbound("comparison", right, name)
        if other.name < col.name:
            conditions.append(Comparison(other, FLIPPED[op], col))
        else:
            conditions.append(Comparison(col, op, other))

    projection: list[ProjEntry] = []
    for term in answers:
        if isinstance(term, Const):
            projection.append(ConstProj(term.value))
        else:
            rep = representative.get(term.name) or _unbound("answer", term, name)
            projection.append(rep.name)

    return PSJQuery(
        name,
        tuple(occurrences),
        tuple(conditions),
        tuple(projection),
        var_columns=tuple([(var, tuple(cols)) for var, cols in all_columns.items()]),
        unsatisfiable=unsatisfiable,
    )
