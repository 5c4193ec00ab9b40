"""Tests for unification."""

from hypothesis import given
from hypothesis import strategies as st

from repro.logic.terms import Atom, Const, Substitution, Var
from repro.logic.unify import unify, unify_terms

X, Y, Z = Var("X"), Var("Y"), Var("Z")
a, b = Const("a"), Const("b")


class TestUnifyTerms:
    def test_identical_constants(self):
        assert unify_terms(a, a, Substitution()) is not None

    def test_clashing_constants(self):
        assert unify_terms(a, b, Substitution()) is None

    def test_var_binds_constant(self):
        s = unify_terms(X, a, Substitution())
        assert s.resolve(X) == a

    def test_var_binds_var(self):
        s = unify_terms(X, Y, Substitution())
        assert s.resolve(X) == s.resolve(Y)

    def test_respects_existing_bindings(self):
        s0 = Substitution().bind(X, a)
        assert unify_terms(X, b, s0) is None
        assert unify_terms(X, a, s0) == s0


class TestUnifyAtoms:
    def test_different_predicates_fail(self):
        assert unify(Atom("p", (X,)), Atom("q", (X,))) is None

    def test_different_arities_fail(self):
        assert unify(Atom("p", (X,)), Atom("p", (X, Y))) is None

    def test_polarity_must_agree(self):
        assert unify(Atom("p", (X,)), Atom("p", (X,), negated=True)) is None

    def test_bindings_flow_both_ways(self):
        s = unify(Atom("p", (X, b)), Atom("p", (a, Y)))
        assert s.resolve(X) == a
        assert s.resolve(Y) == b

    def test_repeated_variable_constraint(self):
        assert unify(Atom("p", (X, X)), Atom("p", (a, b))) is None
        s = unify(Atom("p", (X, X)), Atom("p", (a, a)))
        assert s.resolve(X) == a

    def test_unifier_makes_atoms_equal(self):
        left = Atom("p", (X, b, Z))
        right = Atom("p", (a, Y, Y))
        s = unify(left, right)
        assert s.apply(left) == s.apply(right)


# -- property-based tests -------------------------------------------------------

var_names = st.sampled_from(["X", "Y", "Z", "W"])
const_values = st.integers(0, 3)
terms = st.one_of(var_names.map(Var), const_values.map(Const))
atoms = st.builds(
    Atom,
    pred=st.sampled_from(["p", "q"]),
    args=st.lists(terms, min_size=1, max_size=3).map(tuple),
)


@given(atoms, atoms)
def test_unify_symmetric_success(left, right):
    assert (unify(left, right) is None) == (unify(right, left) is None)


@given(atoms, atoms)
def test_unifier_is_a_solution(left, right):
    s = unify(left, right)
    if s is not None:
        assert s.apply(left) == s.apply(right)


@given(atoms)
def test_unify_reflexive(atom):
    assert unify(atom, atom) is not None
