import logging
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
import pytest

from softlog.grounding import FALSE_INDEX, TRUE_INDEX, GroundContext
from softlog.infer import MULTI, WeightSet, infer
from softlog.logic import (
    FALSE,
    TRUE,
    Atom,
    Clause,
    Const,
    Func,
    Language,
    Subst,
    Term,
    Var,
    apply_subst,
    canonical,
    check_range_restricted,
    clause_vars,
    unify,
)
from softlog.parser import print_term
from softlog.problem import ILPProblem
from softlog.prover import ProofConfig, eval_counts

log = logging.getLogger(__name__)


@pytest.fixture
def pq_lang():
    """Two binary predicates, one unary function, three constants."""
    return Language(
        predicates=[("p", 2), ("q", 2)],
        functions=[("f", 1)],
        constants=["a", "b", "c"],
        variables=["x", "y", "z"],
    )


@pytest.fixture
def nat_lang():
    return Language(
        predicates=[("e", 1)],
        functions=[("s", 1)],
        constants=["0"],
        variables=["x", "y", "z", "v", "w"],
    )


@pytest.fixture
def list_lang():
    return Language(
        predicates=[("mem", 2)],
        functions=[("f", 2)],
        constants=["a", "b", "c", "*"],
        variables=["x", "y", "z", "v", "w"],
    )


def random_term(rng: random.Random, lang: Language, depth: int = 2):
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        return Const(rng.choice(lang.constants))
    if roll < 0.6:
        return Var(rng.choice(lang.variables))
    name, arity = rng.choice(lang.functions)
    return Func(name, tuple(random_term(rng, lang, depth - 1) for _ in range(arity)))


def random_atom(rng: random.Random, lang: Language, depth: int = 2):
    name, arity = rng.choice(lang.predicates)
    return Atom(name, tuple(random_term(rng, lang, depth) for _ in range(arity)))


def random_ground_term(rng: random.Random, lang: Language, depth: int = 2):
    if depth <= 0 or rng.random() < 0.45:
        return Const(rng.choice(lang.constants))
    name, arity = rng.choice(lang.functions)
    return Func(
        name, tuple(random_ground_term(rng, lang, depth - 1) for _ in range(arity))
    )


def random_ground_atom(rng: random.Random, lang: Language, depth: int = 2):
    name, arity = rng.choice(lang.predicates)
    return Atom(name, tuple(random_ground_term(rng, lang, depth) for _ in range(arity)))


# ---------------------------------------------------------------------------
# Unification helpers that only tests use
# ---------------------------------------------------------------------------

def compose(theta: Subst, sigma: Subst) -> Subst:
    """Substitution composition: applying the result equals theta then sigma."""
    out = {v: apply_subst(t, sigma) for v, t in theta.items()}
    for v, t in sigma.items():
        if v not in out:
            out[v] = t
    return out


def occurs_in(v: Var, t: Term) -> bool:
    if type(t) is Var:
        return t == v
    if type(t) is Func:
        return any(occurs_in(v, a) for a in t.args)
    return False


def _reference_unify_terms(a: Term, b: Term, theta: Subst) -> Optional[Subst]:
    a = apply_subst(a, theta)
    b = apply_subst(b, theta)
    if a == b:
        return theta
    if type(a) is Var:
        if occurs_in(a, b):
            return None
        return compose(theta, {a: b})
    if type(b) is Var:
        if occurs_in(b, a):
            return None
        return compose(theta, {b: a})
    if type(a) is Func and type(b) is Func:
        if a.name != b.name or len(a.args) != len(b.args):
            return None
        for x, y in zip(a.args, b.args):
            theta = _reference_unify_terms(x, y, theta)
            if theta is None:
                return None
        return theta
    return None


def reference_unify(a: Atom, b: Atom) -> Optional[Subst]:
    """Most general unifier by applying and composing the substitution at
    every binding: the oracle that ``softlog.logic.unify`` is checked against.

    Occurs check is on.  When a variable of ``a`` meets a variable of ``b``,
    the variable of ``a`` becomes the key, so binding order is deterministic.
    """
    if a.pred != b.pred or len(a.args) != len(b.args):
        return None
    theta: Subst = {}
    for x, y in zip(a.args, b.args):
        theta = _reference_unify_terms(x, y, theta)
        if theta is None:
            return None
    return theta


def alpha_equal(a: Clause, b: Clause) -> bool:
    return canonical(a) == canonical(b)


def rename_apart(c: Clause, taken: Iterable[str]) -> Clause:
    """Standardize a clause apart from the given variable names."""
    taken = set(taken)
    ren: Subst = {}
    i = 0
    for v in clause_vars(c):
        if v.name in taken:
            while True:
                cand = f"_r{i}"
                i += 1
                if cand not in taken:
                    break
            ren[v] = Var(cand)
            taken.add(cand)
    return apply_subst(c, ren) if ren else c


def subsumes(general: Clause, specific: Clause) -> bool:
    """True when some substitution maps general's head onto specific's head
    and general's body into specific's body (theta-subsumption)."""
    g = rename_apart(general, {v.name for v in clause_vars(specific)})

    def extend(theta: Subst, goals: tuple[Atom, ...]) -> bool:
        if not goals:
            return True
        first = apply_subst(goals[0], theta)
        for cand in specific.body:
            sigma = unify(first, cand)
            if sigma is not None and _pattern_only(sigma, specific):
                if extend(compose(theta, sigma), goals[1:]):
                    return True
        return False

    theta = unify(g.head, specific.head)
    if theta is None or not _pattern_only(theta, specific):
        return False
    return extend(theta, g.body)


def _pattern_only(theta: Subst, specific: Clause) -> bool:
    # subsumption must instantiate the general clause, never the specific one
    svars = set(clause_vars(specific))
    return all(v not in svars for v in theta)


# ---------------------------------------------------------------------------
# Forward chaining: the symbolic oracle that the prover and the tensor
# inference are checked against
# ---------------------------------------------------------------------------

def forward_closure(
    program: Iterable[Clause],
    background: Iterable[Atom],
    universe: Sequence[Atom],
    steps: int,
) -> set[Atom]:
    """Atoms of ``universe`` derivable in at most ``steps`` forward-chaining
    rounds, where each round applies every clause to everything currently
    true.  Subgoals that are neither background nor in the universe count as
    false; the result is the true set (background included) plus ``true``."""
    program = tuple(program)
    for c in program:
        check_range_restricted(c)
    true: set[Atom] = {TRUE} | set(background)
    candidates = [a for a in universe if a not in (TRUE, FALSE)]
    for _ in range(steps):
        new: list[Atom] = []
        for g in candidates:
            if g in true:
                continue
            for c in program:
                theta = unify(c.head, g)
                if theta is not None and all(
                    apply_subst(b, theta) in true for b in c.body
                ):
                    new.append(g)
                    break
        if not new:
            break
        true.update(new)
    return true


# ---------------------------------------------------------------------------
# Two-pass grounding: the oracle the one-pass softlog.grounding is checked
# against (enumeration, then a second match of every clause on every atom)
# ---------------------------------------------------------------------------

def reference_enumerate_atoms(
    problem: ILPProblem,
    clauses: Sequence[Clause],
    steps: int,
    extra_seeds: Iterable[Atom] = (),
) -> list[Atom]:
    """Backward-chain from the examples, background, and any extra seeds for
    ``steps`` rounds, collecting every ground subgoal.

    Atoms keep their discovery order: the seeds first (false, true, positives,
    negatives, background, extras), then per round in clause order, seed order,
    body position order.  Each round matches only the atoms the previous round
    added: older atoms already put all of their subgoals into the set.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    for c in clauses:
        check_range_restricted(c)
    seeds = (*problem.pos, *problem.neg, *problem.background, *extra_seeds)
    atoms: list[Atom] = list(dict.fromkeys((FALSE, TRUE, *seeds)))
    seen = set(atoms)
    frontier = atoms[2:]
    for _ in range(steps):
        fresh: list[Atom] = []
        for c in clauses:
            if not c.body:
                continue
            for g in frontier:
                theta = unify(c.head, g)
                if theta is None:
                    continue
                for b in c.body:
                    sub = apply_subst(b, theta)
                    if sub not in seen:
                        seen.add(sub)
                        fresh.append(sub)
        atoms.extend(fresh)
        if not fresh:
            break
        frontier = fresh
    log.info("grounding: |G|=%d", len(atoms))
    return atoms


def reference_build_index_tensor(
    clauses: Sequence[Clause], atoms: Sequence[Atom]
) -> np.ndarray:
    """Index tensor: entry (i, j, k) is the position of the k-th subgoal
    needed to derive atom j with clause i."""
    index = {a: j for j, a in enumerate(atoms)}
    if index.get(FALSE) != FALSE_INDEX or index.get(TRUE) != TRUE_INDEX:
        raise ValueError("atom list must start with the false and true atoms")
    for c in clauses:
        check_range_restricted(c)
    b = max(1, max((len(c.body) for c in clauses), default=1))
    x = np.zeros((len(clauses), len(atoms), b), dtype=np.int64)
    x[:, TRUE_INDEX, :] = TRUE_INDEX
    for i, c in enumerate(clauses):
        for j, g in enumerate(atoms):
            if j in (FALSE_INDEX, TRUE_INDEX):
                continue
            theta = unify(c.head, g)
            if theta is None:
                continue  # row stays at the false index
            for k, pattern in enumerate(c.body):
                x[i, j, k] = index.get(apply_subst(pattern, theta), FALSE_INDEX)
            x[i, j, len(c.body):] = TRUE_INDEX
    return x


# ---------------------------------------------------------------------------
# Inference helpers that only tests use
# ---------------------------------------------------------------------------

def clause_outputs(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """All clause functions at once: row i is the soft conjunction of clause
    i's gathered subgoal valuations."""
    return v[x].prod(axis=2)


def predict(
    atom: Atom,
    ctx: GroundContext,
    v0: np.ndarray,
    weights: WeightSet,
    steps: int,
    gamma: float = 1e-5,
) -> float:
    """Final valuation at the atom's index (raw, unclipped)."""
    if atom not in ctx.index:
        raise KeyError(
            f"{atom!r} is not in the enumerated ground atoms; ground it as an "
            "example"
        )
    v = infer(ctx.x, v0, weights, steps, gamma)
    return float(v[ctx.index_of(atom)])


def reference_cone(x: np.ndarray, root: int, steps: int) -> list[int]:
    """Breadth-first search over the index tensor: the atoms within ``steps``
    subgoal hops of the root, plus false and true, in index order."""
    seen = {FALSE_INDEX, TRUE_INDEX, int(root)}
    frontier = {int(root)}
    for _ in range(steps):
        frontier = {
            int(k)
            for j in frontier
            for row in x[:, j, :]
            for k in row
        } - seen
        seen |= frontier
    return sorted(seen)


# ---------------------------------------------------------------------------
# Nested two-smooth-or inference: the oracle the one-smooth-or step of
# softlog.infer is checked against (a smooth-or over the slot mixtures, then
# a second one with the previous valuation)
# ---------------------------------------------------------------------------

def _reference_softor_n(xs: np.ndarray, gamma: float, axis: int = 0):
    m = xs.max(axis=axis, keepdims=True)
    e = np.exp((xs - m) / gamma)
    s = e.sum(axis=axis, keepdims=True)
    return np.squeeze(m + gamma * np.log(s), axis=axis), e / s


def reference_softor2(a: np.ndarray, b: np.ndarray, gamma: float):
    """Smooth maximum of two broadcastable arrays and its coefficients with
    respect to each."""
    m = np.maximum(a, b)
    ea = np.exp((a - m) / gamma)
    eb = np.exp((b - m) / gamma)
    s = ea + eb
    return m + gamma * np.log(s), ea / s, eb / s


def _reference_prod_except(gv: np.ndarray) -> np.ndarray:
    b = gv.shape[-1]
    if b == 1:
        return np.ones((1,) * gv.ndim)
    ones = np.ones_like(gv[..., :1])
    left = np.concatenate([ones, np.cumprod(gv, axis=-1)[..., :-1]], axis=-1)
    rev = np.cumprod(gv[..., ::-1], axis=-1)[..., ::-1]
    right = np.concatenate([rev[..., 1:], ones], axis=-1)
    return left * right


def _reference_step(
    v: np.ndarray, x: np.ndarray, dist: np.ndarray, mode: str, gamma: float, clamp: bool
) -> tuple:
    gv = v[x]
    cm = gv.prod(axis=2)
    if mode == MULTI:
        r, q = _reference_softor_n(dist @ cm, gamma)
        mix = (cm, q)
    else:
        s, ca, cb = reference_softor2(cm[:, None, :], cm[None, :, :], gamma)
        r = np.tensordot(dist, s, axes=([0, 1], [0, 1]))
        mix = (s, ca, cb)
    v_next, coef_v, coef_r = reference_softor2(v, r, gamma)
    if clamp:
        inside = v_next <= 1.0
        coef_v = coef_v * inside
        coef_r = coef_r * inside
        v_next = np.minimum(v_next, 1.0)
    return v_next, (_reference_prod_except(gv), mix, coef_v, coef_r)


@dataclass
class ReferenceTape:
    x: np.ndarray
    mode: str
    dist: np.ndarray
    steps: list  # per step: (_reference_prod_except, mix, coef_v, coef_r)


def reference_infer(
    x: np.ndarray,
    v0: np.ndarray,
    weights: WeightSet,
    steps: int,
    gamma: float = 1e-5,
    clamp: bool = False,
    record: bool = False,
):
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    v = np.asarray(v0, dtype=np.float64)
    dist = weights.distribution()
    recs = []
    for _ in range(steps):
        v, rec = _reference_step(v, x, dist, weights.mode, gamma, clamp)
        if record:
            recs.append(rec)
    if record:
        return v, ReferenceTape(x, weights.mode, dist, recs)
    return v


def reference_backward(tape: ReferenceTape, grad_out: np.ndarray) -> np.ndarray:
    x, dist = tape.x, tape.dist
    g_dist = np.zeros_like(dist)
    g = np.asarray(grad_out, dtype=np.float64)

    for others, mix, coef_v, coef_r in reversed(tape.steps):
        g_v = g * coef_v
        g_r = g * coef_r
        if tape.mode == MULTI:
            cm, q = mix
            g_h = q * g_r[None, :]
            g_dist += g_h @ cm.T
            g_cm = dist.T @ g_h
        else:
            s, ca, cb = mix
            g_dist += np.tensordot(s, g_r, axes=([2], [0]))
            g_s = dist[:, :, None] * g_r[None, None, :]
            g_cm = (g_s * ca).sum(axis=1) + (g_s * cb).sum(axis=0)

        g_gv = g_cm[:, :, None] * others
        np.add.at(g_v, x.ravel(), g_gv.ravel())
        g = g_v

    axis = 1 if tape.mode == MULTI else None
    inner = (g_dist * dist).sum(axis=axis, keepdims=True)
    return dist * (g_dist - inner)


# ---------------------------------------------------------------------------
# Scoring, refinement and printing helpers that only tests use
# ---------------------------------------------------------------------------

def eval_clause(
    clause: Clause,
    problem: ILPProblem,
    cfg: ProofConfig,
    neg_penalty: float = 0.0,
) -> float:
    """Number of positive examples entailed by background + the clause.

    ``neg_penalty`` > 0 switches to the extension score pos - lambda * neg;
    the default scores positives only.
    """
    pos, neg = eval_counts(clause, problem, cfg)
    p, n = len(pos), len(neg)
    return p - neg_penalty * n if neg_penalty else float(p)


def refinement_bound(c: Clause, lang: Language) -> int:
    """Upper bound on |refine(c)| before filtering."""
    nv = len(clause_vars(c))
    total = nv * len(lang.functions) + nv * len(lang.constants) + nv * nv
    for _, arity in lang.predicates:
        k = 1
        for i in range(arity):
            k *= max(0, nv - i)
        total += k
    return total


def print_term_compact(t: Term) -> str:
    """Render naturals s(s(...(0))) as s^n(0); display only, not parseable."""
    n = 0
    cur = t
    while type(cur) is Func and cur.name == "s" and len(cur.args) == 1:
        n += 1
        cur = cur.args[0]
    if n > 1 and cur == Const("0"):
        return f"s^{n}(0)"
    return print_term(cur if n == 0 else t, None)
