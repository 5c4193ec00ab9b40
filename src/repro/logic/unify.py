"""Unification, which drives the IE's resolution steps.

The CMS's one-directional matching of Section 5.3.2 ("a constant in the
predicate in the subquery can match with the same constant or a variable
at the corresponding position in the predicate in the cache element, but a
variable can only match with a variable") is decided on PSJ form, by
:mod:`repro.core.subsumption`, not on atoms.

The language is function-free so no occurs check is required.
"""

from __future__ import annotations

from repro.logic.terms import Atom, Substitution, Term, Var


def unify_terms(a: Term, b: Term, subst: Substitution) -> Substitution | None:
    """Unify two terms under ``subst``; None when they clash."""
    a = subst.resolve(a)
    b = subst.resolve(b)
    if a == b:
        return subst
    if isinstance(a, Var):
        return subst.bind(a, b)
    if isinstance(b, Var):
        return subst.bind(b, a)
    # Both constants, and unequal.
    return None


def unify(a: Atom, b: Atom, subst: Substitution | None = None) -> Substitution | None:
    """Unify two atoms; returns the extended substitution or None.

    Negation polarity must agree: a negated literal only unifies with a
    negated literal.
    """
    if subst is None:
        subst = Substitution()
    if a.pred != b.pred or a.arity != b.arity or a.negated != b.negated:
        return None
    for ta, tb in zip(a.args, b.args):
        result = unify_terms(ta, tb, subst)
        if result is None:
            return None
        subst = result
    return subst
