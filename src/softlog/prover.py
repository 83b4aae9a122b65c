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

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .logic import (
    Atom,
    Clause,
    FALSE,
    ILPProblem,
    TRUE,
    apply_subst,
    check_range_restricted,
    unify,
)


# Largest proof depth and horizon T: the prover recurses once per level, far
# below Python's recursion limit, and training's hop distances fit one byte.
MAX_HORIZON = 254


@dataclass(frozen=True)
class ProofConfig:
    max_depth: int = 4

    def __post_init__(self):
        if not 1 <= self.max_depth <= MAX_HORIZON:
            raise ValueError(f"max_depth must be >= 1 and <= {MAX_HORIZON}")


class _Prover:
    def __init__(self, program: Sequence[Clause], facts: Iterable[Atom]):
        self.facts = {TRUE, *facts}
        for c in program:
            check_range_restricted(c)
        self.program = program
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
            for c in self.program:  # unify refuses another predicate or arity
                theta = unify(c.head, goal)
                if theta is None:
                    continue
                for b in c.body:
                    if not self.provable(apply_subst(b, theta), depth - 1):
                        break
                else:
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
    if not goal.ground:
        raise ValueError(f"goal must be ground: {goal!r}")
    return _Prover(tuple(program), background).provable(goal, cfg.max_depth)


def eval_counts(
    clause: Clause,
    problem: ILPProblem,
    cfg: ProofConfig,
    within: Optional[tuple[Sequence[int], Sequence[int]]] = None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Indexes into ``problem.pos`` and ``problem.neg`` of the examples that
    background + the clause alone entail; the counts are their lengths.

    ``within`` = (positive indexes, negative indexes) proves only those
    examples and leaves the rest uncovered.  Beam search passes a parent's
    cover when it scores a refinement, which is exact because the child can
    prove no example its parent cannot (module ``search``).
    """
    prover = _Prover((clause,), problem.background)
    pos_idx, neg_idx = within or (range(len(problem.pos)), range(len(problem.neg)))
    depth = cfg.max_depth
    pos = tuple(i for i in pos_idx if prover.provable(problem.pos[i], depth))
    neg = tuple(i for i in neg_idx if prover.provable(problem.neg[i], depth))
    return pos, neg

