"""Tests for terms, atoms, and substitutions."""

from hypothesis import given
from hypothesis import strategies as st

from repro.logic.terms import (
    Atom,
    Const,
    Substitution,
    Var,
    fresh_var,
    rename_apart,
)

X, Y, Z = Var("X"), Var("Y"), Var("Z")
a, b = Const("a"), Const("b")


class TestTerms:
    def test_vars_equal_by_name(self):
        assert Var("X") == Var("X")
        assert Var("X") != Var("Y")

    def test_consts_equal_by_value(self):
        assert Const(1) == Const(1)
        assert Const(1) != Const("1")

    def test_terms_hashable(self):
        assert len({Var("X"), Var("X"), Const(1), Const(1)}) == 2

    def test_fresh_vars_distinct(self):
        assert fresh_var() != fresh_var()

    def test_str_forms(self):
        assert str(Var("Who")) == "Who"
        assert str(Const("tom")) == "tom"
        assert str(Const(42)) == "42"


class TestAtom:
    def test_signature(self):
        assert Atom("p", (X, a)).signature == ("p", 2)

    def test_args_coerced_to_tuple(self):
        atom = Atom("p", [X, a])
        assert isinstance(atom.args, tuple)

    def test_variables_and_constants(self):
        atom = Atom("p", (X, a, Y, X))
        assert atom.variables() == {X, Y}
        assert set(atom.args) - atom.variables() == {a}

    def test_is_ground(self):
        assert Atom("p", (a, b)).is_ground()
        assert not Atom("p", (a, X)).is_ground()

    def test_str(self):
        assert str(Atom("p", (X, a))) == "p(X, a)"
        assert str(Atom("p", ())) == "p"
        assert str(Atom("p", (X,), negated=True)) == "\\+p(X)"

    def test_positive_strips_negation(self):
        atom = Atom("p", (X,), negated=True)
        assert atom.positive() == Atom("p", (X,))

    def test_atoms_hashable(self):
        assert len({Atom("p", (X,)), Atom("p", (X,))}) == 1


class TestSubstitution:
    def test_empty_is_identity(self):
        atom = Atom("p", (X, a))
        assert Substitution().apply(atom) == atom

    def test_bind_and_apply(self):
        s = Substitution().bind(X, a)
        assert s.apply(Atom("p", (X, Y))) == Atom("p", (a, Y))

    def test_bind_resolves_chains(self):
        s = Substitution().bind(X, Y).bind(Y, a)
        assert s.resolve(X) == a

    def test_bind_is_functional(self):
        s1 = Substitution()
        s2 = s1.bind(X, a)
        assert X not in s1
        assert s2[X] == a

    def test_self_binding_is_noop(self):
        s = Substitution().bind(X, X)
        assert len(s) == 0

    def test_apply_preserves_negation(self):
        s = Substitution().bind(X, a)
        out = s.apply(Atom("p", (X,), negated=True))
        assert out.negated

    def test_restricted(self):
        s = Substitution().bind(X, a).bind(Y, b)
        r = s.restricted([X])
        assert X in r and Y not in r

    def test_equality_and_hash(self):
        s1 = Substitution().bind(X, a)
        s2 = Substitution({X: a})
        assert s1 == s2
        assert hash(s1) == hash(s2)


class TestRenameApart:
    def test_renames_consistently_within_call(self):
        atoms = [Atom("p", (X, Y)), Atom("q", (X,))]
        renamed, _ = rename_apart(atoms)
        assert renamed[0].args[0] == renamed[1].args[0]
        assert renamed[0].args[0] != X

    def test_distinct_calls_produce_distinct_vars(self):
        first, _ = rename_apart([Atom("p", (X,))])
        second, _ = rename_apart([Atom("p", (X,))])
        assert first[0].args[0] != second[0].args[0]

    def test_constants_untouched(self):
        renamed, _ = rename_apart([Atom("p", (a, X))])
        assert renamed[0].args[0] == a


# -- property-based tests -------------------------------------------------------

var_names = st.sampled_from(["X", "Y", "Z", "W", "U"])
const_values = st.one_of(st.integers(-5, 5), st.sampled_from(["a", "b", "c"]))
terms = st.one_of(var_names.map(Var), const_values.map(Const))
atoms = st.builds(
    Atom,
    pred=st.sampled_from(["p", "q", "r"]),
    args=st.lists(terms, min_size=0, max_size=4).map(tuple),
)


@given(atoms)
def test_apply_empty_substitution_is_identity(atom):
    assert Substitution().apply(atom) == atom


@given(atoms)
def test_ground_atoms_fixed_by_any_binding(atom):
    s = Substitution().bind(Var("X"), Const("a"))
    if atom.is_ground():
        assert s.apply(atom) == atom


@given(atoms)
def test_apply_is_idempotent(atom):
    s = Substitution().bind(Var("X"), Const(1)).bind(Var("Y"), Const(2))
    once = s.apply(atom)
    assert s.apply(once) == once


@given(atoms)
def test_rename_apart_preserves_shape(atom):
    renamed, _ = rename_apart([atom])
    out = renamed[0]
    assert out.pred == atom.pred
    assert out.arity == atom.arity
    for original, new in zip(atom.args, out.args):
        assert isinstance(original, Const) == isinstance(new, Const)
        if isinstance(original, Const):
            assert original == new
