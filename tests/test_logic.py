import random

import pytest
from hypothesis import example, given, settings, strategies as st

from softlog import logic
from softlog.logic import (
    Atom,
    Clause,
    Const,
    FALSE,
    Func,
    Language,
    TRUE,
    Var,
    apply_subst,
    canonical,
    canonical_in,
    clause_vars,
    distinct_var_tuples,
    is_ground,
    nest_depth,
    unify,
)
from conftest import (
    alpha_equal,
    random_atom,
    random_ground_atom,
    reference_unify,
    subsumes,
)

x, y, z = Var("x"), Var("y"), Var("z")
a, b = Const("a"), Const("b")


def s(t, n=1):
    for _ in range(n):
        t = Func("s", (t,))
    return t


class TestApplySubst:
    def test_paper_worked_unifier(self):
        # e(x) under {x = s^4(0)}
        atom = Atom("e", (x,))
        out = apply_subst(atom, {x: s(Const("0"), 4)})
        assert out == Atom("e", (s(Const("0"), 4),))

    def test_empty_subst_is_identity(self):
        atom = Atom("p", (x, y))
        assert apply_subst(atom, {}) == atom

    def test_simultaneous_replacement(self):
        atom = Atom("p", (x, x))
        out = apply_subst(atom, {x: Func("f", (y, z))})
        assert out == Atom("p", (Func("f", (y, z)), Func("f", (y, z))))


class TestUnify:
    def test_nat_peel(self):
        # e(s^2(x)) against e(s^6(0)) binds x = s^4(0)
        left = Atom("e", (s(x, 2),))
        right = Atom("e", (s(Const("0"), 6),))
        theta = unify(left, right)
        assert theta == {x: s(Const("0"), 4)}

    def test_variable_to_constant(self):
        theta = unify(Atom("p", (x, y)), Atom("p", (a, b)))
        assert theta == {x: a, y: b}

    def test_occurs_check(self):
        assert unify(Atom("p", (x,)), Atom("p", (Func("f", (x,)),))) is None

    def test_mismatched_predicates(self):
        assert unify(Atom("p", (x,)), Atom("q", (x,))) is None
        assert unify(Atom("p", (x,)), Atom("p", (x, y))) is None

    def test_constant_clash(self):
        assert unify(Atom("p", (a,)), Atom("p", (b,))) is None

    def test_true_false_unify_only_with_themselves(self):
        assert unify(TRUE, TRUE) == {}
        assert unify(FALSE, FALSE) == {}
        assert unify(TRUE, FALSE) is None
        assert unify(TRUE, Atom("p", ())) is None


class TestUnifyProperties:
    def test_unifier_makes_atoms_equal(self):
        rng = random.Random(7)
        lang = Language(
            predicates=[("p", 2), ("q", 1)],
            functions=[("f", 1), ("g", 2)],
            constants=["a", "b"],
            variables=["x", "y", "z"],
        )
        hits = 0
        for _ in range(400):
            left, right = random_atom(rng, lang), random_atom(rng, lang)
            theta = unify(left, right)
            if theta is not None:
                hits += 1
                assert apply_subst(left, theta) == apply_subst(right, theta)
        assert hits > 20

    def test_matching_against_ground(self):
        # whenever some substitution grounds A to G, unification finds it
        rng = random.Random(8)
        lang = Language(
            predicates=[("p", 2)],
            functions=[("f", 1)],
            constants=["a", "b"],
            variables=["x", "y"],
        )
        for _ in range(300):
            pattern = random_atom(rng, lang)
            ground = random_ground_atom(rng, lang)
            theta = unify(pattern, ground)
            if theta is not None:
                assert apply_subst(pattern, theta) == ground

    def test_idempotent_after_mgu(self):
        rng = random.Random(9)
        lang = Language(
            predicates=[("p", 2)],
            functions=[("f", 1)],
            constants=["a"],
            variables=["x", "y", "z"],
        )
        for _ in range(300):
            left, right = random_atom(rng, lang), random_atom(rng, lang)
            theta = unify(left, right)
            if theta is None:
                continue
            once = apply_subst(left, theta)
            assert apply_subst(once, theta) == once


class TestCanonical:
    def test_rename_invariance(self):
        c1 = Clause(Atom("p", (x, y)), (Atom("q", (y, x)),))
        c2 = Clause(Atom("p", (z, x)), (Atom("q", (x, z)),))
        assert canonical(c1) == canonical(c2)
        assert alpha_equal(c1, c2)

    def test_idempotent(self):
        c = Clause(Atom("p", (z, Func("f", (y,)))), (Atom("q", (y, z)),))
        assert canonical(canonical(c)) == canonical(c)

    def test_computed_once_per_clause(self, monkeypatch):
        c = Clause(Atom("p", (z, Func("f", (y,)))), (Atom("q", (y, z)),))
        first = canonical(c)
        # the kept form is returned without renaming again
        monkeypatch.setattr(logic, "apply_subst", None)
        assert canonical(c) is first
        twin = Clause(c.head, c.body)
        with pytest.raises(TypeError):
            canonical(twin)  # an equal clause object computes its own
        monkeypatch.undo()
        assert canonical(twin) == first and canonical(twin) is not first

    def test_names_beyond_the_pool(self):
        # a pool shorter than the clause's variables continues with the
        # canonical names from the sixth on: u, then v7, v8, ...
        c = Clause(Atom("p", tuple(Var(f"a{i}") for i in range(7))))
        assert [t.name for t in canonical(c).head.args] == [*"xyzvwu", "v7"]
        for pool in ("xyzvw", "abcde"):
            renamed = canonical_in(c, pool)
            assert [t.name for t in renamed.head.args] == [*pool, "u", "v7"]

    def test_distinguishes_structure(self):
        assert not alpha_equal(
            Clause(Atom("p", (x, y))), Clause(Atom("p", (x, x)))
        )


class TestDistinctVarTuples:
    def test_two_vars_ordered_pairs(self):
        c = Clause(Atom("p", (x, y)))
        assert distinct_var_tuples(c, 2) == [(x, y), (y, x)]

    def test_repeated_var_counts_once(self):
        c = Clause(Atom("p", (x, x)))
        assert distinct_var_tuples(c, 1) == [(x,)]

    def test_too_few_vars(self):
        c = Clause(Atom("p", (x, y)))
        assert distinct_var_tuples(c, 3) == []

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            distinct_var_tuples(Clause(Atom("p", (x,))), 0)


class TestStructure:
    def test_nest_depth(self):
        assert nest_depth(a) == 0
        assert nest_depth(x) == 0
        assert nest_depth(s(x, 3)) == 3
        assert nest_depth(Clause(Atom("e", (s(x, 2),)), (Atom("e", (x,)),))) == 2

    def test_is_ground(self):
        assert is_ground(Atom("p", (a, s(Const("0"), 2))))
        assert not is_ground(Atom("p", (a, x)))

    def test_clause_vars_order(self):
        c = Clause(Atom("p", (y, x)), (Atom("q", (z, y)),))
        assert clause_vars(c) == [y, x, z]

    def test_language_rejects_duplicates_and_reserved(self):
        with pytest.raises(ValueError):
            Language(predicates=[("p", 1), ("p", 2)])
        with pytest.raises(ValueError):
            Language(predicates=[("true", 0)])

    def test_subsumes(self):
        general = Clause(Atom("p", (x, y)))
        specific = Clause(Atom("p", (a, y)), (Atom("q", (y, y)),))
        assert subsumes(general, specific)
        assert not subsumes(specific, general)


# two unary symbols, so that a name clash is not also an arity clash
FUNCTIONS = (("g", 2), ("f", 1), ("h", 1))


@st.composite
def hyp_terms(draw, depth=2):
    if depth == 0:
        return draw(
            st.sampled_from([Const("a"), Const("b"), Var("x"), Var("y"), Var("z")])
        )
    branch = draw(st.integers(0, 2))
    if branch == 0:
        return draw(st.sampled_from([Const("a"), Const("b")]))
    if branch == 1:
        return draw(st.sampled_from([Var("x"), Var("y"), Var("z")]))
    name, arity = draw(st.sampled_from(FUNCTIONS))
    return Func(name, [draw(hyp_terms(depth=depth - 1)) for _ in range(arity)])


@settings(max_examples=120, derandomize=True)
@given(left=hyp_terms(), right=hyp_terms())
def test_unify_symmetric_success(left, right):
    """Unifiability is symmetric, and both orders equalize the atoms."""
    la, ra = Atom("p", (left,)), Atom("p", (right,))
    t1 = unify(la, ra)
    t2 = unify(ra, la)
    assert (t1 is None) == (t2 is None)
    if t1 is not None:
        assert apply_subst(la, t1) == apply_subst(ra, t1)
        assert apply_subst(la, t2) == apply_subst(ra, t2)


@st.composite
def hyp_ground_terms(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from([Const("a"), Const("b")]))
    name, arity = draw(st.sampled_from(FUNCTIONS))
    return Func(name, [draw(hyp_ground_terms(depth=depth - 1)) for _ in range(arity)])


def hyp_atoms(ground=False):
    """p/1 to p/3 atoms, so arities can differ; ``ground`` keeps them ground."""
    terms = hyp_ground_terms() if ground else hyp_terms()
    return st.lists(terms, min_size=1, max_size=3).map(lambda ts: Atom("p", ts))


def _p(*args):
    return Atom("p", args)


@settings(max_examples=400, derandomize=True)
@given(la=hyp_atoms(), ra=st.one_of(hyp_atoms(), hyp_atoms(ground=True)))
@example(la=_p(x, x), ra=_p(a, b))  # a repeated pattern variable that clashes
@example(la=_p(x, Func("g", (y, x))), ra=_p(a, Func("g", (b, a))))  # and one that agrees
@example(la=_p(Func("g", (x, Func("g", (y, a))))), ra=_p(Func("g", (b, Func("g", (a, a))))))
@example(la=_p(Func("f", (x,))), ra=_p(Func("h", (a,))))  # function symbol clash
@example(la=_p(Func("f", (x,))), ra=_p(a))  # function against constant
@example(la=_p(x), ra=_p(a, b))  # arity mismatch
@example(la=_p(Func("g", (a, b))), ra=_p(Func("g", (a, b))))  # ground against ground
@example(la=_p(a, Func("g", (a, b))), ra=_p(a, Func("g", (b, b))))
def test_unify_equals_reference(la, ra):
    """The unifier is exactly the compose-based one, both ways round:
    variable-variable bindings, occurs-check failures, and against a ground
    atom (half the right-hand draws), where ``unify`` takes its one-way
    matching path: repeated pattern variables, nested functions, arity
    mismatches and ground pairs."""
    assert unify(la, ra) == reference_unify(la, ra)
    assert unify(ra, la) == reference_unify(ra, la)


def _ground_by_definition(t):
    if type(t) is Var:
        return False
    if type(t) is Func:
        return all(_ground_by_definition(a) for a in t.args)
    return True


@settings(max_examples=100, derandomize=True)
@given(
    t=hyp_terms(depth=3),
    theta=st.dictionaries(st.sampled_from([x, y, z]), hyp_terms()),
)
def test_cached_groundness(t, theta):
    """``ground`` agrees with the recursive definition, also on terms that
    substitution builds, and substituting into a ground term shares it."""
    assert t.ground == _ground_by_definition(t)
    out = apply_subst(t, theta)
    assert out.ground == _ground_by_definition(out)
    if t.ground:
        assert out is t
