"""Weight optimization: cross-entropy on example labels, RMSProp updates,
program extraction, and evaluation metrics."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grounding import GroundContext, convert_background
from .infer import MULTI, PAIR, WeightSet, backward, infer
from .logic import Atom, Clause, canonical
from .problem import ILPProblem

PRED_CLIP = 1e-7
# A recorded pair-mode pass keeps about 3·T·|C|²·|G| floats; 2**27 is 1 GiB.
PAIR_TAPE_FLOATS = 2**27
# RMSProp internals; fixed here because no standard values exist upstream
RMS_DECAY = 0.99
RMS_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; retry with a different seed."""


@dataclass(frozen=True)
class TrainConfig:
    m: int = 2
    steps: int = 4  # forward-chaining rounds per inference
    gamma: float = 1e-5
    lr: float = 0.01
    epochs: int = 3000
    batch_frac: float = 0.05
    seed: int = 0
    weight_mode: str = MULTI
    clamp: bool = False


@dataclass(frozen=True)
class LearnedProgram:
    """Extracted clauses with the softmax confidence of the slot that chose
    each of them (duplicate choices are merged, keeping the best)."""

    clauses: tuple[Clause, ...]
    confidences: tuple[float, ...]

    def __iter__(self):
        return iter(self.clauses)


def make_labels(problem: ILPProblem) -> list[tuple[Atom, int]]:
    """Label pairs: positives 1, negatives 0."""
    return [(e, 1) for e in problem.pos] + [(e, 0) for e in problem.neg]


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


def predictions(
    atoms: Sequence[Atom],
    ctx: GroundContext,
    v0: np.ndarray,
    weights: WeightSet,
    steps: int,
    gamma: float = 1e-5,
) -> np.ndarray:
    v = infer(ctx.x, v0, weights, steps, gamma)
    return np.array([v[ctx.index_of(a)] for a in atoms])


def cross_entropy(p: np.ndarray, y: np.ndarray) -> float:
    pc = np.clip(p, PRED_CLIP, 1.0 - PRED_CLIP)
    return float(np.mean(-(y * np.log(pc) + (1 - y) * np.log(1 - pc))))


def _loss_and_grad(ctx, v0, weights, idx, y, cfg):
    """Mean cross-entropy over one batch plus its weight gradient."""
    v_t, tape = infer(
        ctx.x, v0, weights, cfg.steps, cfg.gamma, clamp=cfg.clamp, record=True
    )
    p = v_t[idx]
    loss = cross_entropy(p, y)
    pc = np.clip(p, PRED_CLIP, 1.0 - PRED_CLIP)
    grad_out = np.zeros_like(v_t)
    # exact gradient of the clipped loss: flat (zero) outside the clip range
    inside = (p > PRED_CLIP) & (p < 1.0 - PRED_CLIP)
    dp = np.where(inside, (pc - y) / (pc * (1 - pc)) / len(idx), 0.0)
    np.add.at(grad_out, idx, dp)
    return loss, backward(tape, grad_out)


def train(
    problem: ILPProblem,
    clauses: Sequence[Clause],
    ctx: GroundContext,
    cfg: TrainConfig,
) -> tuple[WeightSet, list[float]]:
    """RMSProp over mini-batches sampled without replacement each epoch.

    Returns the trained weights and the per-epoch loss history.  Identical
    seeds and inputs give bit-identical histories.
    """
    labels = make_labels(problem)
    if not labels:
        raise ValueError("cannot train without examples")
    if cfg.weight_mode == PAIR:
        floats = 3 * cfg.steps * len(clauses) ** 2 * len(ctx)
        if floats > PAIR_TAPE_FLOATS:
            raise ValueError(
                f"pair mode would record about {floats:,} floats per epoch "
                f"(3·T·|C|²·|G|, T={cfg.steps}, |C|={len(clauses)}, |G|={len(ctx)}); "
                f"the limit is {PAIR_TAPE_FLOATS:,} (1 GiB). Use multi weight mode"
            )
    v0 = convert_background(problem.background, ctx.atoms)
    idx_all = np.array([ctx.index_of(a) for a, _ in labels])
    y_all = np.array([y for _, y in labels], dtype=np.float64)

    rng = np.random.default_rng(cfg.seed)
    weights = WeightSet.random(cfg.m, len(clauses), cfg.seed, mode=cfg.weight_mode)
    batch = max(1, int(np.ceil(cfg.batch_frac * len(labels))))
    cache = np.zeros_like(weights.w)
    history: list[float] = []
    for epoch in range(cfg.epochs):
        pick = rng.choice(len(labels), size=min(batch, len(labels)), replace=False)
        loss, grad = _loss_and_grad(
            ctx, v0, weights, idx_all[pick], y_all[pick], cfg
        )
        if not np.isfinite(loss):
            raise TrainingDiverged(
                f"non-finite loss at epoch {epoch}; retry with a different seed"
            )
        cache = RMS_DECAY * cache + (1 - RMS_DECAY) * grad * grad
        weights.w -= cfg.lr * grad / (np.sqrt(cache) + RMS_EPS)
        history.append(loss)
    return weights, history


def extract_program(weights: WeightSet, clauses: Sequence[Clause]) -> LearnedProgram:
    """Discretize the weights: argmax clause per slot (multi) or the argmax
    pair (pair), deduplicated by canonical form."""
    dist = weights.distribution()
    picks: list[tuple[int, float]] = []
    if weights.mode == MULTI:
        for row in dist:
            i = int(np.argmax(row))
            picks.append((i, float(row[i])))
    else:
        i, j = np.unravel_index(int(np.argmax(dist)), dist.shape)
        conf = float(dist[i, j])
        picks = [(int(i), conf), (int(j), conf)]
    chosen: dict = {}
    out: list[tuple[Clause, float]] = []
    for i, conf in picks:
        key = canonical(clauses[i])
        if key in chosen:
            k = chosen[key]
            out[k] = (out[k][0], max(out[k][1], conf))
        else:
            chosen[key] = len(out)
            out.append((clauses[i], conf))
    return LearnedProgram(
        clauses=tuple(c for c, _ in out),
        confidences=tuple(conf for _, conf in out),
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _average_ranks(scores: np.ndarray) -> np.ndarray:
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Rank-based (Mann-Whitney) AUC; ties count one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    ranks = _average_ranks(scores)
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def mse(scores: Sequence[float], labels: Sequence[int]) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return float(np.mean((scores - labels) ** 2))


def metrics(scores: Sequence[float], labels: Sequence[int]) -> dict:
    return {"auc": auc(scores, labels), "mse": mse(scores, labels)}
