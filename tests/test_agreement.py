"""Property: the prover, forward closure and one-hot tensor inference agree on
random range-restricted programs.

An atom that enumeration found in round k (round 0 for the seeds) has the
subgoals of every proof of height <= T - k inside the enumerated set, so the
closure over that set is sandwiched between proving at depth T - k and at
depth T.  On the seeds (the examples the learner scores) all three engines
therefore agree exactly at depth T.
"""
from hypothesis import HealthCheck, given, settings, strategies as st, target

from softlog.grounding import context_from_atoms, convert_background, enumerate_atoms
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
from softlog.prover import ProofConfig, entails, eval_counts, forward_closure


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
        assert eval_counts(c, problem, cfg) == (p, n)


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
