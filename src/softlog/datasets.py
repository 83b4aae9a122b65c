"""Benchmark task generators, label noise, train/test splitting, file IO.

Each task is declared in the problem-file syntax that ``softlog gen`` writes:
a header with its language, background facts and initial clause, and its
ground-truth program, next to per-task hyperparameter defaults.  Examples are
sampled from the ground-truth relation (positives) or rejection-sampled
against the symbolic oracle (negatives), so labels are sound by construction.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from .logic import Atom, Clause, Const, Func, ILPProblem, Term, check_field_types, list_term
from .parser import parse_clause, parse_problem, print_atom, problem_to_text
from .prover import ProofConfig, entails

ORACLE_DEPTH = 12
# generate gives up on a class after this many rejected draws in a row
MAX_REJECTED_RUN = 10_000


def make_list(elems: Sequence[str]) -> Term:
    return list_term([Const(e) for e in elems])


def make_nat(n: int) -> Term:
    t: Term = Const("0")
    for _ in range(n):
        t = Func("s", (t,))
    return t


@dataclass(frozen=True)
class TaskSpec:
    task: str
    n_per_class: int = 50
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.n_per_class < 0:
            raise ValueError(f"TaskSpec.n_per_class must be >= 0, got {self.n_per_class}")
        if self.seed < 0:
            raise ValueError(f"TaskSpec.seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TaskDef:
    problem: ILPProblem  # the header: name, language, background, initial clauses
    ground_truth: tuple[Clause, ...]
    default_size: int
    m: int
    steps: int  # forward-chaining rounds T
    beam_size: int
    beam_steps: int
    sample_pos: Callable
    sample_neg_shape: Callable

    language = property(lambda td: td.problem.language)
    initial_clauses = property(lambda td: td.problem.initial_clauses)


# ---------------------------------------------------------------------------
# Task definitions
# ---------------------------------------------------------------------------

def _member_pos(rng: random.Random, size: int) -> Atom:
    # The witness position is stratified (head / last / anywhere) so both the
    # head-match base case and the tail recursion have solid evidence.
    k = rng.randint(1, size)
    lst = [rng.choice("abc") for _ in range(k)]
    case = rng.random()
    if case < 0.35:
        e = lst[0]
    elif case < 0.7:
        e = lst[-1]
    else:
        e = rng.choice(lst)
    return Atom("mem", (Const(e), make_list(lst)))


def _member_neg(rng: random.Random, size: int) -> Atom:
    k = rng.randint(1, size)
    e = rng.choice("abc")
    rest = [c for c in "abc" if c != e]
    lst = [rng.choice(rest) for _ in range(k)]
    return Atom("mem", (Const(e), make_list(lst)))


def _plus_pos(rng: random.Random, size: int) -> Atom:
    a = rng.randint(0, size)
    b = rng.randint(0, size - a)
    return Atom("plus", (make_nat(a), make_nat(b), make_nat(a + b)))


def _plus_neg(rng: random.Random, size: int) -> Atom:
    a = rng.randint(0, size)
    b = rng.randint(0, size)
    c = rng.randint(0, size)
    return Atom("plus", (make_nat(a), make_nat(b), make_nat(c)))


def _append_pos(rng: random.Random, size: int) -> Atom:
    # Positives exercise every derivation shape: both one-sided base cases
    # and the general recursion.  When the second list is nonempty the first
    # stays short because a T = 4 inference strips at most three head
    # elements before a base case; an empty second list allows one more.
    case = rng.random()
    if case < 0.35:
        kx, ky = rng.randint(1, min(4, size - 1)), 0
    elif case < 0.65:
        kx, ky = 0, rng.randint(1, size)
    else:
        kx = rng.randint(1, min(3, size - 1))
        ky = rng.randint(1, size - kx)
    xs = [rng.choice("abc") for _ in range(kx)]
    ys = [rng.choice("abc") for _ in range(ky)]
    return Atom("app", (make_list(xs), make_list(ys), make_list(xs + ys)))


def _append_neg(rng: random.Random, size: int) -> Atom:
    # Near misses: corrupt the result of a true triple (letter flip, element
    # dropped or inserted, result replaced by one input) plus fully random
    # shapes.  Without near misses, almost-right clauses never meet a
    # penalizing negative during training.
    def lst(k):
        return [rng.choice("abc") for _ in range(k)]

    kx = rng.randint(0, min(3, size - 1))
    ky = rng.randint(0, size - kx)
    xs, ys = lst(kx), lst(ky)
    zs = xs + ys
    case = rng.random()
    if case < 0.2 and zs:
        i = rng.randrange(len(zs))
        zs = zs[:i] + [rng.choice([c for c in "abc" if c != zs[i]])] + zs[i + 1 :]
    elif case < 0.4 and zs:
        i = rng.randrange(len(zs))
        zs = zs[:i] + zs[i + 1 :]
    elif case < 0.6 and len(zs) < size:
        i = rng.randint(0, len(zs))
        zs = zs[:i] + [rng.choice("abc")] + zs[i:]
    elif case < 0.8:
        zs = ys if xs else xs
    else:
        zs = lst(rng.randint(0, size))
    return Atom("app", (make_list(xs), make_list(ys), make_list(zs)))


def _delete_pos(rng: random.Random, size: int) -> Atom:
    k = rng.randint(2, size)
    lst = [rng.choice("abc") for _ in range(k)]
    i = rng.randrange(k)
    rest = lst[:i] + lst[i + 1 :]
    return Atom("del", (Const(lst[i]), make_list(lst), make_list(rest)))


def _delete_neg(rng: random.Random, size: int) -> Atom:
    k = rng.randint(1, size)
    e = rng.choice("abc")
    lst = [rng.choice("abc") for _ in range(k)]
    rest = [rng.choice("abc") for _ in range(k - 1)]
    return Atom("del", (Const(e), make_list(lst), make_list(rest)))


def _random_tree(rng: random.Random, depth: int, alphabet: Sequence[str] = "abc") -> Term:
    if depth <= 0 or rng.random() < 0.3:
        return Const(rng.choice(alphabet))
    return Func(
        "f",
        (
            _random_tree(rng, depth - 1, alphabet),
            _random_tree(rng, depth - 1, alphabet),
        ),
    )


def _subtree_pos(rng: random.Random, size: int) -> Atom:
    # The occurrence is drawn by random descent rather than uniformly over
    # proper subtrees: direct children and spine leaves (the base cases of
    # the recursions) then appear often enough to anchor every derivation
    # shape, and shallow occurrences dominate, which keeps derivation chains
    # short.
    while True:
        t2 = _random_tree(rng, size)
        if type(t2) is not Func:
            continue
        node: Term = t2.args[rng.randrange(2)]
        while type(node) is Func and rng.random() > 0.60:
            node = node.args[rng.randrange(2)]
        return Atom("sub", (node, t2))


def _corrupt_leaf(rng: random.Random, t: Term) -> Term:
    if type(t) is Const:
        return Const(rng.choice([c for c in "abc" if c != t.name]))
    left, right = t.args
    if rng.random() < 0.5:
        return Func("f", (_corrupt_leaf(rng, left), right))
    return Func("f", (left, _corrupt_leaf(rng, right)))


def _subtree_neg(rng: random.Random, size: int) -> Atom:
    # Three shapes of counter-evidence.  A random tree almost always contains
    # any given leaf, so leaf non-members get their own branch (tree over the
    # other letters); near misses corrupt one leaf of a genuine subtree so
    # almost-right structural clauses meet penalizing negatives too.
    roll = rng.random()
    if roll < 0.35:
        e = rng.choice("abc")
        rest = [c for c in "abc" if c != e]
        t2 = _random_tree(rng, size, alphabet=rest)
        while type(t2) is not Func:
            t2 = _random_tree(rng, size, alphabet=rest)
        return Atom("sub", (Const(e), t2))
    if roll < 0.65:
        pos = _subtree_pos(rng, size)
        t1, t2 = pos.args
        return Atom("sub", (_corrupt_leaf(rng, t1), t2))
    t1 = _random_tree(rng, max(1, size - 1))
    t2 = _random_tree(rng, size)
    return Atom("sub", (t1, t2))


def _task(header: str, program: Sequence[str], **fields) -> TaskDef:
    """A task from its problem-file header and its reference program, parsed
    in the header's language.

    ``var u.`` makes the pool ``logic.CANON_VARS``: the recursive append
    and delete clauses bind four distinct variables through two function
    applications, which is impossible to reach under the freshness rule of
    the function-refinement operator with only five names (each
    application consumes one live variable and needs two unused ones)."""
    p = parse_problem(header + " var u.")
    return TaskDef(p, tuple(parse_clause(t, p.language) for t in program), **fields)


TASKS = {
    td.problem.name: td
    for td in (
        _task(
            "task member. pred mem/2. func f/2. const a. const b. const c. const *."
            " init mem(x,y). bg mem(a,[a]). bg mem(b,[b]). bg mem(c,[c]).",
            ("mem(x,[y|z]) :- mem(x,z)", "mem(x,[x|y])"),
            default_size=5,
            m=2,
            steps=4,
            beam_size=3,
            beam_steps=3,
            sample_pos=_member_pos,
            sample_neg_shape=_member_neg,
        ),
        _task(
            "task plus. pred plus/3. func s/1. const 0."
            " init plus(x,y,z). bg plus(0,0,0).",
            (
                "plus(0,x,x)",
                "plus(x,s(y),s(z)) :- plus(x,y,z)",
                "plus(s(x),y,s(z)) :- plus(y,x,z)",
            ),
            default_size=9,
            m=3,
            steps=8,
            beam_size=10,
            beam_steps=5,
            sample_pos=_plus_pos,
            sample_neg_shape=_plus_neg,
        ),
        _task(
            "task append. pred app/3. func f/2. const a. const b. const c. const *."
            " init app(x,y,z). bg app([],[],[]).",
            ("app([],x,x)", "app(x,[],x)", "app([x|y],z,[x|v]) :- app(y,z,v)"),
            default_size=5,
            m=3,
            steps=4,
            beam_size=10,
            beam_steps=5,
            sample_pos=_append_pos,
            sample_neg_shape=_append_neg,
        ),
        _task(
            "task delete. pred del/3. func f/2. const a. const b. const c. const *."
            " init del(x,y,z). bg del(a,[a],[]). bg del(b,[b],[]). bg del(c,[c],[]).",
            ("del(x,[x|y],y)", "del(x,[y|z],[y|v]) :- del(x,z,v)"),
            default_size=5,
            m=2,
            steps=4,
            beam_size=10,
            beam_steps=5,
            sample_pos=_delete_pos,
            sample_neg_shape=_delete_neg,
        ),
        _task(
            "task subtree. pred sub/2. func f/2. const a. const b. const c."
            " init sub(x,y). bg sub(a,a). bg sub(b,b). bg sub(c,c).",
            (
                "sub(f(x,y),f(x,y))",
                "sub(x,f(y,z)) :- sub(x,z)",
                "sub(x,f(y,z)) :- sub(x,y)",
                "sub(x,f(y,x))",
            ),
            default_size=3,
            m=4,
            steps=4,
            beam_size=15,
            beam_steps=3,
            sample_pos=_subtree_pos,
            sample_neg_shape=_subtree_neg,
        ),
    )
}


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def generate(spec: TaskSpec) -> ILPProblem:
    """Sample a problem instance: positives from the ground-truth relation,
    negatives rejection-sampled until the oracle refutes them.  Examples are
    distinct, never background facts, and the classes are balanced."""
    if spec.task not in TASKS:
        raise ValueError(f"unknown task {spec.task!r}; choose from {sorted(TASKS)}")
    td = TASKS[spec.task]
    rng = random.Random(spec.seed)
    oracle_cfg = ProofConfig(max_depth=ORACLE_DEPTH)

    pos: list[Atom] = []
    neg: list[Atom] = []
    seen = set(td.problem.background)
    for out, sample, kind in (
        (pos, td.sample_pos, "positive"), (neg, td.sample_neg_shape, "negative")
    ):
        rejected = 0
        while len(out) < spec.n_per_class:
            a = sample(rng, td.default_size)
            if a in seen or (
                out is neg and entails(td.ground_truth, td.problem.background, a, oracle_cfg)
            ):
                rejected += 1
                if rejected == MAX_REJECTED_RUN:
                    raise ValueError(
                        f"task {spec.task} found {len(out)} distinct {kind} examples "
                        f"of the {spec.n_per_class} asked for, then rejected "
                        f"{MAX_REJECTED_RUN} draws in a row"
                    )
                continue
            rejected = 0
            seen.add(a)
            out.append(a)

    return td.problem.with_examples(pos, neg)


def check_noise(noise: float) -> None:
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must be in [0, 1], got {noise}")


def check_split_frac(split_frac: float, name: str = "split_frac") -> None:
    """``name`` is how the message calls the setting."""
    if not 0.0 < split_frac <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {split_frac}")


def inject_noise(problem: ILPProblem, noise: float, seed: int) -> ILPProblem:
    """Flip exactly floor(noise * #examples) labels, moving the chosen
    atoms between the positive and negative sets.  Selection is by atom (from
    the canonically sorted example list), so flipping twice with the same
    seed restores the original class sets."""
    check_noise(noise)
    n = int(noise * (len(problem.pos) + len(problem.neg)))
    if n == 0:
        return problem
    rng = random.Random(seed)
    ordered = sorted(problem.examples, key=repr)
    flipped = set(rng.sample(ordered, n))
    new_pos = [a for a in problem.pos if a not in flipped]
    new_pos += [a for a in problem.neg if a in flipped]
    new_neg = [a for a in problem.neg if a not in flipped]
    new_neg += [a for a in problem.pos if a in flipped]
    return problem.with_examples(new_pos, new_neg)


def split(
    problem: ILPProblem, split_frac: float, seed: int
) -> tuple[ILPProblem, list[tuple[Atom, int]]]:
    """Stratified split: floor(split_frac * n) of each class goes to training;
    the rest come back as labeled test atoms.  An example that repeats, in
    its class or in the other, is refused: its copies could land on both
    sides of the split, or carry both labels."""
    check_split_frac(split_frac)
    first: dict = {}  # example -> where it first appears, "pos i" or "neg i"
    for cls, atoms in (("pos", problem.pos), ("neg", problem.neg)):
        for i, a in enumerate(atoms):
            if first.setdefault(a, f"{cls} {i}") != f"{cls} {i}":
                text = print_atom(a, problem.language)
                raise ValueError(f"{cls} {i} repeats {first[a]}: {text}")
    rng = random.Random(seed)

    def cut(atoms):
        atoms = list(atoms)
        rng.shuffle(atoms)
        k = int(split_frac * len(atoms))
        return atoms[:k], atoms[k:]

    pos_tr, pos_te = cut(problem.pos)
    neg_tr, neg_te = cut(problem.neg)
    test = [(a, 1) for a in pos_te] + [(a, 0) for a in neg_te]
    return problem.with_examples(pos_tr, neg_tr), test


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def save_problem(problem: ILPProblem, path) -> None:
    """Write ``problem``'s file, refusing a problem that ``load_problem``
    would not read back equal."""
    text = problem_to_text(problem)
    try:
        back = parse_problem(text)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    if back != problem:
        pool, read = (",".join(p.language.variables) for p in (problem, back))
        raise ValueError(f"{path}: variable pool {pool} would read back as {read}")
    Path(path).write_text(text, encoding="utf-8")


def load_problem(path) -> ILPProblem:
    try:
        return parse_problem(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def problem_hash(problem: ILPProblem) -> str:
    """Hash of the data alone: the task name selects defaults, not data."""
    text = problem_to_text(replace(problem, name=""))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
