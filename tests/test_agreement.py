"""Property: the prover, forward closure and one-hot tensor inference agree on
random range-restricted programs.

An atom that enumeration found in round k (round 0 for the seeds) has the
subgoals of every proof of height <= T - k inside the enumerated set, so the
closure over that set is sandwiched between proving at depth T - k and at
depth T.  On the seeds (the examples the learner scores) all three engines
therefore agree exactly at depth T.
"""
import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st, target

from conftest import (
    forward_closure,
    reference_build_index_tensor,
    reference_cone,
    reference_enumerate_atoms,
)
from softlog.grounding import (
    context_from_atoms,
    convert_background,
    enumerate_atoms,
    ground_context,
)
from softlog.infer import WeightSet, infer
from softlog.logic import (
    FALSE,
    TRUE,
    Atom,
    Clause,
    Const,
    Func,
    Var,
    apply_subst,
    atom_vars,
    clause_vars,
    unify,
)
from softlog.problem import ILPProblem
from softlog.prover import ProofConfig, entails, eval_counts
from softlog.training import _hops


def ground_terms(lang):
    """f^n(c) over a small space (about six terms), so that clause heads,
    examples and background facts meet often."""
    f = lang.functions[0][0]
    depth = max(2, 5 // len(lang.constants))
    out = []
    for c in lang.constants:
        t = Const(c)
        for _ in range(depth):
            out.append(t)
            t = Func(f, (t,))
    return st.sampled_from(out)


@st.composite
def atoms_over(draw, lang, args):
    name, arity = draw(st.sampled_from(lang.predicates))
    return Atom(name, draw(st.tuples(*[args] * arity)))


@st.composite
def range_restricted_clauses(draw, lang):
    """Heads over x, y, one function layer and the constants; one or two body
    atoms over the head's variables and the constants, so that recursive
    clauses such as e(s(x)) :- e(x) come up often."""
    x, y = Var("x"), Var("y")
    f = lang.functions[0][0]
    consts = [Const(c) for c in lang.constants]
    head_args = st.sampled_from([Func(f, (x,)), Func(f, (y,)), x, y, *consts])
    head = draw(atoms_over(lang, head_args))
    body_atom = atoms_over(lang, st.sampled_from([*atom_vars(head), *consts]))
    return Clause(head, [draw(body_atom) for _ in range(draw(st.integers(1, 2)))])


@st.composite
def instances(draw, pq_lang, nat_lang):
    """A program, a problem and a horizon.  Each clause gets one ground
    instance planted: its head becomes an example and a drawn subset of its
    body becomes background, so clauses fire, or just fail to, often."""
    lang = draw(st.sampled_from([pq_lang, nat_lang]))
    terms = ground_terms(lang)
    ground = atoms_over(lang, terms)
    program = draw(st.lists(range_restricted_clauses(lang), min_size=1, max_size=3))
    pos = draw(st.lists(ground, max_size=2))
    bg = draw(st.lists(ground, max_size=3))
    for c in program:
        theta = {v: draw(terms) for v in clause_vars(c)}
        pos.append(apply_subst(c.head, theta))
        bg += [apply_subst(b, theta) for b in c.body if draw(st.booleans())]
    problem = ILPProblem(
        pos=tuple(pos),
        neg=tuple(draw(st.lists(ground, max_size=2))),
        background=tuple(bg),
        language=lang,
    )
    return program, problem, draw(st.sampled_from((1, 2, 3)))


# the language fixtures are constants, so sharing them across examples is safe
DRAWN = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@settings(max_examples=100, **DRAWN)
@given(data=st.data())
def test_engines_agree_on_enumerated_atoms(pq_lang, nat_lang, data):
    program, problem, steps = data.draw(instances(pq_lang, nat_lang))
    bg = problem.background

    universe = enumerate_atoms(problem, program, steps)
    n_seeds = len({*problem.pos, *problem.neg, *bg}) + 2
    found_by = [n_seeds] + [
        len(enumerate_atoms(problem, program, k)) for k in range(1, steps + 1)
    ]
    ctx = context_from_atoms(program, universe)
    v0 = convert_background(bg, universe)
    w = WeightSet.one_hot(list(range(len(program))), len(program))
    v = infer(ctx.x, v0, w, steps, gamma=1e-5)
    closure = forward_closure(program, bg, universe, steps)

    def height(g):
        """Least proof depth within the bound, steps + 1 when unprovable."""
        return next(
            (d for d in range(1, steps + 1) if entails(program, bg, g, ProofConfig(d))),
            steps + 1,
        )

    tallest = 0
    for j, g in enumerate(universe[2:], start=2):
        k = next(r for r, n in enumerate(found_by) if j < n)
        h = 0 if g in bg else height(g)
        derived = g in closure
        assert (v[j] >= 0.5) == derived, g
        assert h <= steps if derived else h > steps - k, g
        if derived:
            tallest = max(tallest, h)
    target(float(tallest), label="tallest derived proof")

    cfg = ProofConfig(steps)
    for c in program:
        p = sum(entails([c], bg, e, cfg) for e in problem.pos)
        n = sum(entails([c], bg, e, cfg) for e in problem.neg)
        pos, neg = eval_counts(c, problem, cfg)
        assert (len(pos), len(neg)) == (p, n)


def rescan_enumeration(problem, program, steps):
    """Reference enumeration: every round matches every atom found so far."""
    atoms = list(dict.fromkeys([FALSE, TRUE, *problem.examples, *problem.background]))
    for _ in range(steps):
        subgoals = [
            apply_subst(b, theta)
            for c in program
            for g in atoms[2:]
            if (theta := unify(c.head, g)) is not None
            for b in c.body
        ]
        known = set(atoms)
        atoms += [a for a in dict.fromkeys(subgoals) if a not in known]
    return atoms


@settings(max_examples=200, **DRAWN)
@given(data=st.data())
def test_frontier_enumeration_matches_rescan(pq_lang, nat_lang, data):
    program, problem, steps = data.draw(instances(pq_lang, nat_lang))
    atoms = enumerate_atoms(problem, program, steps)
    target(float(len(atoms)), label="enumerated atoms")
    assert atoms == rescan_enumeration(problem, program, steps)


def same_context(ctx, atoms, program):
    assert list(ctx.atoms) == atoms
    assert ctx.index == {a: j for j, a in enumerate(atoms)}
    assert np.array_equal(ctx.x, reference_build_index_tensor(program, atoms))


@settings(max_examples=150, **DRAWN)
@given(data=st.data())
def test_one_pass_grounding_matches_two_passes(pq_lang, nat_lang, data):
    """The one pass gives the atoms, index and tensor of enumerating first
    and matching every clause on every atom afterwards."""
    program, problem, steps = data.draw(instances(pq_lang, nat_lang))
    for rounds in range(1, steps + 1):
        atoms = reference_enumerate_atoms(problem, program, rounds)
        same_context(ground_context(problem, program, rounds), atoms, program)
    target(float(len(atoms)), label="enumerated atoms")
    # zero growth rounds over a drawn atom list that leaves subgoals out
    kept = data.draw(st.permutations(atoms[2:]))
    kept = [FALSE, TRUE, *kept[: data.draw(st.integers(0, len(kept)))]]
    same_context(context_from_atoms(program, kept), kept, program)


@settings(max_examples=150, **DRAWN)
@given(data=st.data())
def test_held_out_seeds_need_no_training_seeds(pq_lang, nat_lang, data):
    """A seed's valuation after T steps is the same whether the other
    examples are seeds too: evaluation grounds the held-out atoms alone."""
    program, problem, steps = data.draw(instances(pq_lang, nat_lang))

    def some(atoms):
        return data.draw(st.lists(st.sampled_from(atoms), max_size=2)) if atoms else []

    pos, neg = some(problem.pos), some(problem.neg)
    held_out = problem.with_examples(pos, neg)
    both = problem.with_examples((*problem.pos, *pos), (*problem.neg, *neg))

    def valuations(seeded, w):
        ctx = ground_context(seeded, program, steps)
        v0 = convert_background(problem.background, ctx.atoms)
        v = infer(ctx.x, v0, w, steps, gamma=1e-5)
        return {a: v[ctx.index_of(a)] for a in (*pos, *neg)}

    for w in (
        WeightSet.one_hot(list(range(len(program))), len(program)),
        WeightSet.random(2, len(program), seed=0),
    ):
        assert valuations(held_out, w) == valuations(both, w)


@settings(max_examples=150, **DRAWN)
@given(data=st.data())
def test_cones_match_breadth_first_search(pq_lang, nat_lang, data):
    """Each example's hop distances give, for every k in 0..T, the cone a
    breadth-first search over the index tensor reaches within k hops, and
    every atom beyond T hops is at T + 1."""
    program, problem, steps = data.draw(instances(pq_lang, nat_lang))
    ctx = ground_context(problem, program, steps)
    roots = [ctx.index_of(a) for a in problem.examples]
    hops = _hops(ctx.x, np.array(roots), steps)
    assert hops.shape == (len(roots), len(ctx))
    for k in range(steps + 1):
        assert [np.flatnonzero(h <= k).tolist() for h in hops] == [
            reference_cone(ctx.x, r, k) for r in roots
        ]
    assert hops.max() <= steps + 1
    target(float((hops <= steps).sum(axis=1).max()), label="cone size")
