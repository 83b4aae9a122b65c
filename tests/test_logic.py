import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

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
    """``unify`` matches one way, against a ground atom; the occurs check
    belongs to the general unifier, ``reference_unify``."""

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
        assert reference_unify(Atom("p", (x,)), Atom("p", (Func("f", (x,)),))) is None
        assert reference_unify(
            Atom("mem", (x, x)), Atom("mem", (y, Func("f", (a, y))))
        ) is None

    def test_mismatched_predicates(self):
        assert unify(Atom("p", (x,)), Atom("q", (a,))) is None
        assert unify(Atom("p", (x,)), Atom("p", (a, b))) is None

    def test_constant_clash(self):
        assert unify(Atom("p", (a,)), Atom("p", (b,))) is None

    def test_true_false_unify_only_with_themselves(self):
        assert unify(TRUE, TRUE) == {}
        assert unify(FALSE, FALSE) == {}
        assert unify(TRUE, FALSE) is None
        assert unify(TRUE, Atom("p", ())) is None

    @pytest.mark.parametrize(
        "right",
        [Atom("p", (a, x)), Atom("p", (Func("f", (a, Func("f", (x,)))),))],
        ids=["variable", "nested-variable"],
    )
    def test_rejects_non_ground_target(self, right):
        with pytest.raises(ValueError, match="ground"):
            unify(Atom("p", (x, y)), right)
        with pytest.raises(ValueError, match="ground"):
            unify(Atom("q", (x,)), right)  # also when the predicates differ


class TestUnifyProperties:
    """The general laws are checked on ``reference_unify``, the tests' most
    general unifier; matching against a ground atom on ``unify``."""

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
            theta = reference_unify(left, right)
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
            theta = reference_unify(left, right)
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


class TestPickle:
    """Values cross process boundaries: pickling and copying rebuild them
    through their constructors, so a load re-hashes them."""

    COPIES = {
        "pickle": lambda v: pickle.loads(pickle.dumps(v)),
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
    }

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_values_and_problems_round_trip(self, how):
        from softlog.datasets import TaskSpec, generate

        again = self.COPIES[how]
        f = Func("f", (a, Func("g", (x,))))
        values = [a, x, f, Atom("p", (f, b)), Clause(Atom("p", (x,)), (Atom("q", (x, a)),))]
        for v in values:
            w = again(v)
            assert type(w) is type(v) and w == v and hash(w) == hash(v)
            with pytest.raises(AttributeError, match=f"{type(v).__name__} is immutable"):
                w._hash = 0
        problem = generate(TaskSpec("append", n_per_class=5, seed=0))
        loaded = again(problem)
        fields = ("pos", "neg", "background", "initial_clauses", "name")
        assert [getattr(loaded, k) for k in fields] == [getattr(problem, k) for k in fields]
        lang = ("predicates", "functions", "constants", "variables")
        assert [getattr(loaded.language, k) for k in lang] == [
            getattr(problem.language, k) for k in lang
        ]

    def test_problem_from_another_hash_seed(self, tmp_path):
        from softlog.datasets import TaskSpec, generate

        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(logic.__file__).resolve().parents[1])
        path = tmp_path / "problem.pkl"
        script = (
            "import pickle, sys\n"
            "from softlog.datasets import TaskSpec, generate\n"
            "from softlog.logic import Const\n"
            "problem = generate(TaskSpec('member', n_per_class=10, seed=0))\n"
            "open(sys.argv[1], 'wb').write(pickle.dumps(problem))\n"
            "print(hash(Const('a')))\n"
        )
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) != hash(a)  # the two processes hash differently
        loaded = pickle.loads(path.read_bytes())
        local = generate(TaskSpec("member", n_per_class=10, seed=0))
        index = {atom: i for i, atom in enumerate(local.examples + local.background)}
        assert [index[atom] for atom in loaded.examples + loaded.background] == list(
            range(len(index))
        )
        assert loaded.initial_clauses[0] in set(local.initial_clauses)


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
    t1 = reference_unify(la, ra)
    t2 = reference_unify(ra, la)
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
    """Against a ground atom (half the right-hand draws) ``unify`` gives
    exactly the compose-based most general unifier: repeated pattern
    variables, nested functions, arity mismatches, and both ways round when
    both atoms are ground.  Against any other atom it raises."""
    if not is_ground(ra):
        with pytest.raises(ValueError):
            unify(la, ra)
        return
    assert unify(la, ra) == reference_unify(la, ra)
    if is_ground(la):
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
