import copy
import os
import pickle
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from softlog import logic
from softlog.datasets import TaskSpec, generate
from softlog.logic import (
    MAX_TERM_DEPTH,
    Atom,
    Clause,
    Const,
    FALSE,
    Func,
    ILPProblem,
    Language,
    ProblemError,
    TRUE,
    Var,
    apply_subst,
    canonical,
    canonical_in,
    nest_depth,
    unify,
    variables,
)
from conftest import (
    alpha_equal,
    random_atom,
    random_ground_atom,
    random_ground_term,
    random_term,
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
        assert Atom("p", (a, s(Const("0"), 2))).ground
        assert not Atom("p", (a, x)).ground
        assert not Atom("p", (a, s(x, 2))).ground
        assert TRUE.ground and FALSE.ground

    def test_atom_groundness_is_having_no_variable(self):
        """An atom's cached ``ground`` is the absence of variables, it
        survives a pickle round trip, and substituting into a ground atom
        returns that atom."""
        rng = random.Random(11)
        lang = Language(
            predicates=[("p", 2), ("q", 1)],
            functions=[("f", 1), ("g", 2)],
            constants=["a", "b"],
            variables=["x", "y"],
        )
        drawn = [random_atom(rng, lang) for _ in range(300)]
        drawn += [random_ground_atom(rng, lang) for _ in range(100)]
        assert {at.ground for at in drawn} == {True, False}
        for at in drawn:
            assert at.ground == (not variables(at))
            assert pickle.loads(pickle.dumps(at)).ground == at.ground
            if at.ground:
                assert apply_subst(at, {x: a}) is at

    def test_variables_order(self):
        c = Clause(Atom("p", (y, x)), (Atom("q", (z, y)),))
        assert variables(c) == [y, x, z]
        assert variables(c.body[0]) == [z, y]
        assert variables(Func("g", (a, Func("g", (x, z))))) == [x, z]
        assert variables(x) == [x] and variables(a) == []

    def test_variables_equal_a_walk_into_every_subterm(self):
        """Over random terms, atoms and clauses, ``variables`` lists every
        variable once, at its first occurrence, head first: what a walk that
        opens every subterm, ground or not, finds.  Ground input has none."""

        def occurrences(e):
            if type(e) is Var:
                return [e]
            if type(e) is Const:
                return []
            parts = (e.head, *e.body) if type(e) is Clause else e.args
            return [v for part in parts for v in occurrences(part)]

        rng = random.Random(5)
        lang = Language(
            predicates=[("p", 2), ("q", 1)],
            functions=[("f", 1), ("g", 2)],
            constants=["a", "b"],
            variables=["x", "y", "z"],
        )
        drawn = []
        for _ in range(200):
            drawn.append(random_term(rng, lang, depth=3))
            drawn.append(random_atom(rng, lang))
            body = [random_atom(rng, lang) for _ in range(rng.randrange(3))]
            drawn.append(Clause(random_atom(rng, lang), body))
        for e in drawn:
            assert variables(e) == list(dict.fromkeys(occurrences(e)))
        assert {len(variables(e)) for e in drawn} >= {0, 1, 2, 3}
        for _ in range(100):
            ground = [random_ground_term(rng, lang, depth=3), random_ground_atom(rng, lang)]
            ground.append(Clause(ground[1], (random_ground_atom(rng, lang),)))
            assert all(variables(e) == [] for e in ground)

    def test_language_rejects_duplicates_and_reserved(self):
        with pytest.raises(ValueError):
            Language(predicates=[("p", 1), ("p", 2)])
        with pytest.raises(ValueError):
            Language(predicates=[("true", 0)])

    def test_language_rejects_a_nullary_function(self):
        with pytest.raises(ValueError, match=r"function symbols have arity >= 1, found 'g/0'"):
            Language(predicates=[("p", 1)], functions=[("f", 1), ("g", 0)])

    @pytest.mark.parametrize("fields, message", [
        ({"constants": ["a b"]}, "bad constant name 'a b'"),
        ({"variables": ["X"]}, "bad variable name 'X'"),
        ({"constants": ["-1"]}, "bad constant name '-1'"),
        ({"predicates": [("p", -1)]}, "predicates have arity >= 0, found 'p/-1'"),
        ({"constants": ["x"], "variables": ["x"]}, "'x' is both a constant and a variable"),
        ({"constants": ["a", "b", "a"]}, "duplicate constant 'a'"),
    ], ids=["spaced-constant", "upper-variable", "signed-constant", "negative-arity",
            "clash", "duplicate"])
    def test_language_refuses_what_no_file_can_declare(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Language(**fields)

    def test_problem_refuses_a_name_no_file_can_hold(self):
        lang = Language(predicates=[("p", 0)])
        assert ILPProblem((), (), (), lang, name="my_task").name == "my_task"
        with pytest.raises(ValueError, match="^bad task name 'my task'$"):
            ILPProblem((), (), (), lang, name="my task")

    @pytest.mark.parametrize("field, group, part, message", [
        ("pos", "pos", TRUE, "'true' is reserved and cannot be an example or a background fact"),
        ("neg", "neg", Atom("p", (x,)), r"atoms must be ground: p\(x\)"),
        ("background", "bg", FALSE, "'false' is reserved"),
        ("initial_clauses", "init", Clause(TRUE, (Atom("p", (a,)),)),
         "'true' is reserved and cannot head a clause$"),
    ], ids=["pos-true", "non-ground-neg", "bg-false", "init-true-head"])
    def test_problem_refuses_a_part_by_group_and_index(self, field, group, part, message):
        # the grounding gives true and false fixed rows: neither is a fact,
        # and a clause with either head would take a weight and stay inert
        lang = Language(predicates=[("p", 1)], constants=["a"])
        parts = {"pos": (), "neg": (), "background": (), "initial_clauses": ()}
        parts[field] = (Atom("p", (a,)) if type(part) is Atom else Clause(Atom("p", (x,))), part)
        with pytest.raises(ProblemError, match=f"^{group} 1: {message}") as err:
            ILPProblem(language=lang, **parts)
        assert (err.value.group, err.value.index) == (group, 1)

    def test_equal_vocabularies_compare_equal(self):
        make = lambda: Language([("p", 1)], [("f", 2)], ["a", "*"], ["x", "y"])
        assert make() == make() and hash(make()) == hash(make())
        assert make() != Language([("p", 1)], [("f", 2)], ["a", "*"], ["y", "x"])
        problems = [ILPProblem((Atom("p", (a,)),), (), (), make()) for _ in range(2)]
        assert problems[0] == problems[1]

    def test_subsumes(self):
        general = Clause(Atom("p", (x, y)))
        specific = Clause(Atom("p", (a, y)), (Atom("q", (y, y)),))
        assert subsumes(general, specific)
        assert not subsumes(specific, general)


class TestNestingBound:
    """``MAX_TERM_DEPTH`` holds for a problem built in Python as for a file."""

    @pytest.mark.parametrize("where", ["pos", "bg", "init"])
    def test_problem_refuses_a_term_past_the_bound(self, where):
        lang = Language(predicates=[("e", 1)], functions=[("s", 1)], constants=["0"])

        def build(depth):
            parts = {"pos": (Atom("e", (Const("0"),)),), "background": (),
                     "initial_clauses": (Clause(Atom("e", (x,))),)}
            if where == "init":
                parts["initial_clauses"] = (Clause(Atom("e", (s(x, depth),))),)
            else:
                key = "pos" if where == "pos" else "background"
                parts[key] = (Atom("e", (s(Const("0"), depth),)),)
            return ILPProblem(neg=(), language=lang, **parts)

        assert build(MAX_TERM_DEPTH)
        with pytest.raises(ValueError, match=f"{where} 0: terms nest deeper than {MAX_TERM_DEPTH}"):
            build(MAX_TERM_DEPTH + 1)

    def test_deep_initial_clause_is_refused_not_overflowed(self):
        # printing its rank key once overflowed the stack inside the beam
        problem = generate(TaskSpec("plus", seed=0))
        deep = Clause(Atom("plus", (x, y, s(z, 246))))
        with pytest.raises(ValueError, match=f"deeper than {MAX_TERM_DEPTH}"):
            replace(problem, initial_clauses=(deep,))

    @pytest.mark.parametrize("inner, depth", [(Const("0"), 5000), (x, 600)],
                             ids=["ground", "non-ground"])
    def test_deep_example_is_refused_not_overflowed(self, inner, depth):
        # the bound reads cached depths, and its check runs before the
        # groundness check's message prints the atom
        lang = Language(predicates=[("e", 1)], functions=[("s", 1)], constants=["0"])
        with pytest.raises(ValueError, match=f"pos 0: terms nest deeper than {MAX_TERM_DEPTH}"):
            ILPProblem(pos=(Atom("e", (s(inner, depth),)),), neg=(), background=(),
                       language=lang)

    def test_repr_past_the_bound(self):
        deep = Clause(Atom("e", (s(x, 300),)), (Atom("e", (x,)),))
        assert repr(deep) == "e(" + "s(" * 300 + "x" + ")" * 301 + " :- e(x)"


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
        again = self.COPIES[how]
        f = Func("f", (a, Func("g", (x,))))
        values = [a, x, f, Atom("p", (f, b)), Clause(Atom("p", (x,)), (Atom("q", (x, a)),))]
        for v in values:
            w = again(v)
            assert type(w) is type(v) and w == v and hash(w) == hash(v)
            assert nest_depth(w) == nest_depth(v)
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
    if not ra.ground:
        with pytest.raises(ValueError):
            unify(la, ra)
        return
    assert unify(la, ra) == reference_unify(la, ra)
    if la.ground:
        assert unify(ra, la) == reference_unify(ra, la)


def _ground_by_definition(t):
    if type(t) is Var:
        return False
    if type(t) is Func:
        return all(_ground_by_definition(a) for a in t.args)
    return True


def _depth_by_definition(t):
    if type(t) is Func:
        return 1 + max(_depth_by_definition(a) for a in t.args)
    return 0


@settings(max_examples=100, derandomize=True)
@given(
    t=hyp_terms(depth=3),
    theta=st.dictionaries(st.sampled_from([x, y, z]), hyp_terms()),
)
def test_cached_groundness(t, theta):
    """``ground`` and ``depth`` agree with their recursive definitions, also
    on terms that substitution builds, and substituting into a ground term
    shares it."""
    assert t.ground == _ground_by_definition(t)
    assert t.depth == _depth_by_definition(t)
    out = apply_subst(t, theta)
    assert out.ground == _ground_by_definition(out)
    assert out.depth == _depth_by_definition(out)
    if t.ground:
        assert out is t
