"""Correctness checks on the benchmark's outputs.

Each check compares what the code under test produced with a computation
made apart from it (the depth-bounded SLD prover, or arithmetic written out
here) or with a property the method must have.  None compares against a
stored copy of earlier output.  Every function returns a list of readable
mismatch descriptions; an empty list means the check passed.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from softlog.grounding import GroundContext, convert_background
from softlog.infer import WeightSet, infer
from softlog.logic import FALSE, TRUE, Atom, Clause
from softlog.prover import ProofConfig, entails

# A valuation at or above this reads as "derived".
TRUTH_THRESHOLD = 0.5

# Held-out accuracy every extracted program must reach under the SLD prover
# at the learner's own horizon T.  The lowest seen on the benchmark's jobs is
# 0.933 (subtree); the README lists them all.
ACCURACY_FLOOR = 0.85


def proves(program: Sequence[Clause], background, atom: Atom, depth: int) -> bool:
    return entails(program, background, atom, ProofConfig(max_depth=depth))


def label_mismatches(
    labels: Sequence, background, reference: Sequence[Clause], depth: int
) -> list[str]:
    """Every atom labelled 1 is entailed by the reference program and every
    atom labelled 0 is not, at the given proof depth."""
    return [
        f"{a!r} labelled {y}"
        for a, y in labels
        if proves(reference, background, a, depth) != bool(y)
    ]


def argmax_weights(weights: WeightSet) -> WeightSet:
    """One-hot weights on each slot's highest-weighted clause, taken from the
    trained weights directly (not from ``extract_program``)."""
    slots = [int(i) for i in np.argmax(weights.w, axis=1)]
    return WeightSet.one_hot(slots, weights.n_clauses)


def tensor_prover_mismatches(
    ctx: GroundContext,
    background,
    weights: WeightSet,
    program: Sequence[Clause],
    atoms: Sequence[Atom],
    steps: int,
    gamma: float,
) -> list[str]:
    """One-hot tensor inference under ``weights`` derives exactly what the SLD
    prover derives from ``program`` at depth ``steps``, on the given atoms."""
    v0 = convert_background(background, ctx.atoms)
    v = infer(ctx.x, v0, weights, steps, gamma)
    bad = []
    for a in atoms:
        if a in (TRUE, FALSE):
            continue
        by_tensor = bool(v[ctx.index_of(a)] >= TRUTH_THRESHOLD)
        by_prover = proves(program, background, a, steps)
        if by_tensor != by_prover:
            bad.append(f"{a!r}: tensor {by_tensor}, prover {by_prover}")
    return bad


def heldout_accuracy(
    program: Sequence[Clause], background, labels: Sequence, depth: int
) -> float:
    """Share of labelled atoms the program classifies right under the prover."""
    hits = sum(proves(program, background, a, depth) == bool(y) for a, y in labels)
    return hits / len(labels)


def query_mismatches(
    atoms: Sequence[Atom],
    scores: Sequence[float],
    reference: Sequence[Clause],
    background,
    steps: int,
) -> list[str]:
    """Predicted truth (score at or above the threshold) of each query atom
    equals its entailment by the reference program at depth ``steps``."""
    if len(atoms) != len(scores):
        return [f"{len(scores)} scores for {len(atoms)} atoms"]
    bad = []
    for a, s in zip(atoms, scores):
        if (s >= TRUTH_THRESHOLD) != proves(reference, background, a, steps):
            bad.append(f"{a!r}: score {s:.4g}")
    return bad


def metric_mismatches(scores: Sequence[float], labels: Sequence[int], reported: dict) -> list[str]:
    """The reported MSE and AUC equal the textbook definitions: mean squared
    error, and the share of (positive, negative) pairs ranked right with ties
    counting one half."""
    s = [float(x) for x in scores]
    y = [int(v) for v in labels]
    mse = sum((a - b) ** 2 for a, b in zip(s, y)) / len(s)
    pos = [a for a, b in zip(s, y) if b == 1]
    neg = [a for a, b in zip(s, y) if b == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    auc = wins / (len(pos) * len(neg))
    bad = []
    if not np.isclose(reported["mse"], mse, rtol=1e-9, atol=1e-12):
        bad.append(f"mse reported {reported['mse']!r}, recomputed {mse!r}")
    if not np.isclose(reported["auc"], auc, rtol=1e-9, atol=1e-12):
        bad.append(f"auc reported {reported['auc']!r}, recomputed {auc!r}")
    return bad


RECORD_FIELDS = (
    "program", "n_clauses", "n_atoms", "param_count", "loss_samples",
    "train_mse", "test_mse", "train_auc", "test_auc",
)


def record_differences(a, b) -> list[str]:
    """Fields of two run records of the same job that differ; the runtime is
    the only field allowed to."""
    return [
        f"{f}: {getattr(a, f)!r} != {getattr(b, f)!r}"
        for f in RECORD_FIELDS
        if getattr(a, f) != getattr(b, f)
    ]
