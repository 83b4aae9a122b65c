"""Depth-bounded ground proving over range-restricted clauses.

``entails`` matches clause heads against a ground goal and proves the ground
body atoms in turn; the bound counts clause applications along each proof
branch (proof-tree height), and matching a background fact is free.  With that
accounting, a ground atom is provable within depth T exactly when T-step
forward chaining derives it, which is what makes this module the discrete
oracle for the differentiable inference.

Depth exhaustion returns False: an under-approximation, by design.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from .logic import (
    Atom,
    Clause,
    FALSE,
    TRUE,
    apply_subst,
    check_range_restricted,
    is_ground,
    unify,
)
from .problem import ILPProblem


@dataclass(frozen=True)
class ProofConfig:
    max_depth: int = 4

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


class _Prover:
    def __init__(self, program: Sequence[Clause], facts: Iterable[Atom]):
        self.facts = {TRUE, *facts}
        self.clauses_by_pred = defaultdict(list)
        for c in program:
            check_range_restricted(c)
            self.clauses_by_pred[(c.head.pred, c.head.arity)].append(c)
        self.memo: dict[tuple[Atom, int], bool] = {}

    def provable(self, goal: Atom, depth: int) -> bool:
        """Ground goal provable within the given proof-tree height."""
        if goal in self.facts:
            return True
        if goal == FALSE:
            return False
        key = (goal, depth)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        result = False
        if depth >= 1:
            for c in self.clauses_by_pred.get((goal.pred, goal.arity), ()):
                theta = unify(c.head, goal)
                if theta is not None and all(
                    self.provable(apply_subst(b, theta), depth - 1) for b in c.body
                ):
                    result = True
                    break
        self.memo[key] = result
        return result


def entails(
    program: Iterable[Clause],
    background: Iterable[Atom],
    goal: Atom,
    cfg: ProofConfig,
) -> bool:
    """True iff the ground goal is derivable from program + background within
    ``cfg.max_depth`` clause applications per branch."""
    if not is_ground(goal):
        raise ValueError(f"goal must be ground: {goal!r}")
    return _Prover(tuple(program), background).provable(goal, cfg.max_depth)


def eval_counts(
    clause: Clause, problem: ILPProblem, cfg: ProofConfig
) -> tuple[int, int]:
    """(positives, negatives) entailed by background + the clause alone."""
    prover = _Prover((clause,), problem.background)
    p = sum(prover.provable(e, cfg.max_depth) for e in problem.pos)
    n = sum(prover.provable(e, cfg.max_depth) for e in problem.neg)
    return p, n


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
    p, n = eval_counts(clause, problem, cfg)
    return p - neg_penalty * n if neg_penalty else float(p)


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
