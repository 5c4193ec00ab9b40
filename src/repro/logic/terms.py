"""First-order terms: variables, constants, and atomic formulas.

The IE's knowledge base, CAQL's conjunctive core, view specifications, and
the subsumption algorithm all manipulate the same term language, so it lives
in one place.  Terms are immutable and hashable; substitutions are immutable
mappings with functional update.

The language is function-free (Datalog-style) at the data level — constants
are Python values — but :class:`Atom` heads/literals carry a predicate name
and a tuple of terms, which is all the paper's examples require.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

_fresh_counter = itertools.count(1)


@dataclass(frozen=True, slots=True)
class Var:
    """A logic variable, identified by name.

    Names starting with ``_G`` are reserved for machine-generated fresh
    variables (see :func:`fresh_var`).
    """

    name: str

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


@dataclass(frozen=True, slots=True)
class Const:
    """A constant; wraps an arbitrary hashable Python value."""

    value: object

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return self.value
        return repr(self.value)

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


#: A term is a variable or a constant (the language is function-free).
Term = Union[Var, Const]


def fresh_var(hint: str = "") -> Var:
    """Return a variable guaranteed distinct from every parsed variable."""
    return Var(f"_G{hint}{next(_fresh_counter)}")


@dataclass(frozen=True, slots=True)
class Atom:
    """An atomic formula ``pred(t1, ..., tn)``.

    ``negated`` supports the culling logic around mutual-exclusion SOAs;
    the core query language is negation-free.
    """

    pred: str
    args: tuple[Term, ...]
    negated: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    @property
    def arity(self) -> int:
        """Number of arguments."""
        return len(self.args)

    @property
    def signature(self) -> tuple[str, int]:
        """``(name, arity)`` — the key under which predicates are indexed."""
        return (self.pred, self.arity)

    def variables(self) -> set[Var]:
        """The set of variables occurring in the atom."""
        return {t for t in self.args if isinstance(t, Var)}

    def is_ground(self) -> bool:
        """True when no argument is a variable."""
        return all(isinstance(t, Const) for t in self.args)

    def positive(self) -> "Atom":
        """The same atom with negation stripped."""
        if not self.negated:
            return self
        return Atom(self.pred, self.args)

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        body = f"{self.pred}({inner})" if self.args else self.pred
        return f"\\+{body}" if self.negated else body

    def __repr__(self) -> str:
        return f"Atom({str(self)!r})"


class Substitution(Mapping[Var, Term]):
    """An immutable variable binding map with functional update.

    Bindings are fully dereferenced on construction: a substitution never
    maps a variable to another variable that it also binds, so ``resolve``
    is a single dictionary lookup chain of length at most two.
    """

    __slots__ = ("_map",)

    def __init__(self, bindings: Mapping[Var, Term] | Iterable[tuple[Var, Term]] = ()):
        self._map: dict[Var, Term] = dict(bindings)

    # -- Mapping protocol ---------------------------------------------------
    def __getitem__(self, var: Var) -> Term:
        return self._map[var]

    def __iter__(self) -> Iterator[Var]:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}={t}" for v, t in sorted(self._map.items(), key=lambda p: p[0].name))
        return f"{{{inner}}}"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Substitution):
            return self._map == other._map
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    # -- operations ----------------------------------------------------------
    def resolve(self, term: Term) -> Term:
        """Follow bindings until a constant or an unbound variable."""
        while isinstance(term, Var) and term in self._map:
            term = self._map[term]
        return term

    def bind(self, var: Var, term: Term) -> "Substitution":
        """A new substitution with ``var`` bound to ``term``.

        ``term`` is resolved first so chains never grow.
        """
        resolved = self.resolve(term)
        if isinstance(resolved, Var) and resolved == var:
            return self
        new = dict(self._map)
        new[var] = resolved
        return Substitution(new)

    def apply(self, atom: Atom) -> Atom:
        """Replace every bound variable in ``atom`` with its value."""
        if not self._map:
            return atom
        return Atom(
            atom.pred,
            tuple(self.resolve(a) if isinstance(a, Var) else a for a in atom.args),
            negated=atom.negated,
        )

    def apply_term(self, term: Term) -> Term:
        """Resolve a single term through the substitution."""
        return self.resolve(term) if isinstance(term, Var) else term

    def restricted(self, variables: Iterable[Var]) -> "Substitution":
        """Only the bindings for the given variables."""
        wanted = set(variables)
        return Substitution({v: t for v, t in self._map.items() if v in wanted})


EMPTY_SUBSTITUTION = Substitution()


def rename_apart(atoms: Iterable[Atom], suffix: str | None = None) -> tuple[list[Atom], Substitution]:
    """Rename every variable in ``atoms`` to a fresh variable.

    Returns the renamed atoms and the renaming substitution.  Used to keep
    rule variables disjoint from goal variables during resolution.
    """
    atoms = list(atoms)
    mapping: dict[Var, Term] = {}
    for atom in atoms:
        for var in atom.variables():
            if var not in mapping:
                mapping[var] = fresh_var(suffix or "")
    renaming = Substitution(mapping)
    return [renaming.apply(a) for a in atoms], renaming
