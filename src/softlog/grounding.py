"""Ground-atom enumeration and the clause/atom index tensor.

The tensor convention follows the worked scheme: row 0 of every clause slice
(the ``false`` atom) holds index 0 everywhere, row 1 (``true``) holds index 1,
body slots beyond a clause's length are padded with the ``true`` index, and
subgoals that fall outside the enumerated set map to ``false`` (sound: nothing
extra ever becomes provable).  Clauses must be range-restricted, so matching a
head against a ground atom always yields ground subgoals.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .logic import (
    Atom,
    Clause,
    FALSE,
    TRUE,
    apply_subst,
    check_range_restricted,
    unify,
)
from .problem import ILPProblem

log = logging.getLogger(__name__)

FALSE_INDEX = 0
TRUE_INDEX = 1


@dataclass(frozen=True)
class GroundContext:
    """Ordered ground atoms, their index map, and the index tensor X with
    shape (num clauses, num atoms, max body length)."""

    atoms: tuple[Atom, ...]
    index: dict
    clauses: tuple[Clause, ...]
    x: np.ndarray

    @property
    def b(self) -> int:
        return self.x.shape[2]

    def index_of(self, atom: Atom) -> int:
        return self.index[atom]

    def __len__(self) -> int:
        return len(self.atoms)


def enumerate_atoms(
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


def build_index_tensor(clauses: Sequence[Clause], atoms: Sequence[Atom]) -> np.ndarray:
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


def ground_context(
    problem: ILPProblem,
    clauses: Sequence[Clause],
    steps: int,
    extra_seeds: Iterable[Atom] = (),
) -> GroundContext:
    atoms = enumerate_atoms(problem, clauses, steps, extra_seeds)
    return context_from_atoms(clauses, atoms)


def context_from_atoms(clauses: Sequence[Clause], atoms: Sequence[Atom]) -> GroundContext:
    """Build a context over an explicitly ordered atom list (index 0 must be
    the false atom, index 1 true)."""
    atoms = tuple(atoms)
    x = build_index_tensor(clauses, atoms)
    return GroundContext(
        atoms=atoms,
        index={a: j for j, a in enumerate(atoms)},
        clauses=tuple(clauses),
        x=x,
    )


def convert_background(background: Iterable[Atom], atoms: Sequence[Atom]) -> np.ndarray:
    """Initial valuation: 1 on background atoms and true, 0 elsewhere."""
    bg = set(background)
    v0 = np.zeros(len(atoms), dtype=np.float64)
    for j, a in enumerate(atoms):
        if a == TRUE or a in bg:
            v0[j] = 1.0
    return v0
