import logging
import random
from typing import Iterable, Optional, Sequence

import numpy as np
import pytest

from softlog.grounding import FALSE_INDEX, TRUE_INDEX
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
from softlog.problem import ILPProblem

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
