"""Ground-atom enumeration and the clause/atom index tensor, in one pass.

The seeds are round 0.  Each growth round matches every clause head against
the atoms the round before added (clause order, then atom order); each match
is one tensor row, and a subgoal gets its index when first seen.  A last,
lookup-only round matches the last round's atoms without adding subgoals.  So
each clause meets each atom once, and an atom found in round k has exact
valuations up to step T - k.  The tensor holds |C|·|G|·B int64 cells, and the
pass refuses the atom that would take it past ``GROUND_CELLS``.

Tensor convention: row 0 of every clause slice (the ``false`` atom) holds
index 0, row 1 (``true``) holds index 1, body slots beyond a clause's length
hold the ``true`` index, and subgoals outside the enumerated set map to
``false`` (sound: nothing extra ever becomes provable).  Clauses must be
range-restricted, so matching a head against a ground atom grounds its body.
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
    ILPProblem,
    TRUE,
    apply_subst,
    check_range_restricted,
    check_value,
    unify,
)
from .prover import HORIZON

log = logging.getLogger(__name__)

FALSE_INDEX = 0
TRUE_INDEX = 1
# Most int64 cells the index tensor may hold (|C|·|G|·B); 2**24 is 128 MiB.
GROUND_CELLS = 2**24


@dataclass(frozen=True)
class GroundContext:
    """Ordered ground atoms, their index map, the index tensor X with shape
    (num clauses, num atoms, max body length) and the initial valuation v0."""

    atoms: tuple[Atom, ...]
    index: dict
    x: np.ndarray
    v0: np.ndarray

    def index_of(self, atom: Atom) -> int:
        return self.index[atom]

    def __len__(self) -> int:
        return len(self.atoms)


def _ground(clauses: Sequence[Clause], seeds: Iterable[Atom], rounds: int,
            background: Iterable[Atom]) -> GroundContext:
    """The one pass: seeds, ``rounds`` growth rounds, then a lookup-only round."""
    clauses = tuple(clauses)
    for c in clauses:
        check_range_restricted(c)
    b = max(1, max((len(c.body) for c in clauses), default=1))
    atoms = [FALSE, TRUE]
    index = {FALSE: FALSE_INDEX, TRUE: TRUE_INDEX}

    def admit(a: Atom) -> int:
        if len(clauses) * (len(atoms) + 1) * b > GROUND_CELLS:
            raise ValueError(
                f"grounding would exceed {GROUND_CELLS:,} index tensor cells "
                f"(|C|·|G|·B with |C|={len(clauses)}, |G|={len(atoms)} so far, "
                f"B={b}); use fewer clauses, examples or steps"
            )
        index[a] = len(atoms)
        atoms.append(a)
        return index[a]

    for a in seeds:
        if a not in index:
            admit(a)
    rows_i, rows_j, cells = [], [], []  # one matched (clause, atom) per row
    lo = TRUE_INDEX + 1
    for r in range(rounds + 1):
        grow = r < rounds
        hi = len(atoms)
        for i, c in enumerate(clauses):
            pad = [TRUE_INDEX] * (b - len(c.body))
            for j in range(lo, hi):
                theta = unify(c.head, atoms[j])
                if theta is None:
                    continue  # row stays at the false index
                for pattern in c.body:
                    sub = apply_subst(pattern, theta)
                    k = index.get(sub)
                    if k is None:
                        k = admit(sub) if grow else FALSE_INDEX
                    cells.append(k)
                cells += pad
                rows_i.append(i)
                rows_j.append(j)
        lo = hi
    x = np.zeros((len(clauses), len(atoms), b), dtype=np.int64)
    x[:, TRUE_INDEX, :] = TRUE_INDEX
    x[rows_i, rows_j] = np.array(cells, dtype=np.int64).reshape(-1, b)
    log.info("grounding: |G|=%d", len(atoms))
    return GroundContext(tuple(atoms), index, x, convert_background(background, atoms))


def ground_context(
    problem: ILPProblem, clauses: Sequence[Clause], steps: int
) -> GroundContext:
    """Backward-chain from the examples and background for ``steps`` rounds.
    Atoms keep their discovery order: false, true, positives, negatives,
    background, then per round in clause, atom and body position order."""
    check_value("steps", steps, HORIZON, "int")
    seeds = (*problem.pos, *problem.neg, *problem.background)
    return _ground(clauses, seeds, steps, problem.background)


def context_from_atoms(clauses: Sequence[Clause], atoms: Sequence[Atom],
                       background: Iterable[Atom]) -> GroundContext:
    """Build a context over an explicitly ordered atom list (index 0 must be
    the false atom, index 1 true), with v0 from ``background``; subgoals
    outside the list map to false."""
    atoms = tuple(atoms)
    if atoms[:2] != (FALSE, TRUE):
        raise ValueError("atom list must start with the false and true atoms")
    return _ground(clauses, atoms[2:], 0, background)


def enumerate_atoms(problem: ILPProblem, clauses: Sequence[Clause], steps: int) -> list[Atom]:
    """The atoms of ``ground_context``, in its order."""
    return list(ground_context(problem, clauses, steps).atoms)


def build_index_tensor(clauses: Sequence[Clause], atoms: Sequence[Atom]) -> np.ndarray:
    """Index tensor: entry (i, j, k) is the position of the k-th subgoal
    needed to derive atom j with clause i."""
    return context_from_atoms(clauses, atoms, ()).x


def convert_background(background: Iterable[Atom], atoms: Sequence[Atom]) -> np.ndarray:
    """Initial valuation: 1 on background atoms and true, 0 elsewhere."""
    bg = set(background)
    v0 = np.zeros(len(atoms), dtype=np.float64)
    for j, a in enumerate(atoms):
        if a == TRUE or a in bg:
            v0[j] = 1.0
    return v0
