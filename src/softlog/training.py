"""Weight optimization: cross-entropy on example labels, RMSProp updates,
program extraction, and evaluation metrics."""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grounding import FALSE_INDEX, TRUE_INDEX, GroundContext, convert_background
from .infer import MULTI, PAIR, WeightSet, backward, infer
from .logic import Atom, Clause, canonical
from .problem import ILPProblem

log = logging.getLogger(__name__)

PRED_CLIP = 1e-7
# A recorded pair-mode pass keeps about 3·T·|C|²·|cone| floats; 2**27 is 1 GiB.
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


def _loss_and_grad(x, v0, weights, idx, y, cfg):
    """Mean cross-entropy over one batch plus its weight gradient."""
    v_t, tape = infer(
        x, v0, weights, cfg.steps, cfg.gamma, clamp=cfg.clamp, record=True
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


def _cones(x: np.ndarray, roots: np.ndarray, steps: int) -> list[np.ndarray]:
    """Per root, the sorted indexes of the atoms within ``steps`` subgoal hops
    of it, with false and true (so they sit at positions 0 and 1).

    v_T at a root reads v_{T-d} at an atom d hops away, so the cone holds every
    valuation the root's v_T depends on; an atom exactly ``steps`` hops away
    is read only at step 0, where its valuation is its v0.
    """
    subgoals = x.transpose(1, 0, 2).reshape(x.shape[1], -1)
    out = []
    for root in roots:
        seen = np.zeros(x.shape[1], dtype=bool)
        seen[[FALSE_INDEX, TRUE_INDEX, root]] = True
        frontier = np.array([root])
        for _ in range(steps):
            fresh = np.zeros_like(seen)
            fresh[subgoals[frontier]] = True
            fresh &= ~seen
            seen |= fresh
            frontier = np.flatnonzero(fresh)
        out.append(np.flatnonzero(seen))
    return out


def _on_cone(x: np.ndarray, v0: np.ndarray, idx: np.ndarray, cones: Sequence[np.ndarray]):
    """Restrict a batch to the union of its atoms' cones: the tensor over the
    cone with subgoals outside it sent to false, v0 and the batch indexes."""
    inside = np.zeros(x.shape[1], dtype=bool)
    for c in cones:
        inside[c] = True
    cone = np.flatnonzero(inside)
    remap = np.zeros(x.shape[1], dtype=np.int64)  # outside the cone: false
    remap[cone] = np.arange(len(cone))
    return remap[x[:, cone, :]], v0[cone], remap[idx]


def _check_config(cfg: TrainConfig) -> None:
    if cfg.m < 1:
        raise ValueError(f"TrainConfig.m must be >= 1, got {cfg.m}")
    if cfg.epochs < 0:
        raise ValueError(f"TrainConfig.epochs must be >= 0, got {cfg.epochs}")
    if not 0 < cfg.batch_frac <= 1:
        raise ValueError(f"TrainConfig.batch_frac must be in (0, 1], got {cfg.batch_frac}")
    if not cfg.lr > 0:
        raise ValueError(f"TrainConfig.lr must be positive, got {cfg.lr}")


def train(
    problem: ILPProblem,
    clauses: Sequence[Clause],
    ctx: GroundContext,
    cfg: TrainConfig,
) -> tuple[WeightSet, list[float]]:
    """RMSProp over mini-batches sampled without replacement each epoch.

    Each epoch infers and back-propagates over the batch's dependency cone
    only: the atoms within T subgoal hops of a batch atom (see ``_cones``).
    The result equals a pass over all of G in real arithmetic, and the
    recorded pass holds per-step arrays over the cone, not over |G|: about
    3·T·|C|²·|cone| floats in pair mode.

    Returns the trained weights and the per-epoch loss history.  Identical
    seeds and inputs give bit-identical histories.
    """
    _check_config(cfg)
    labels = make_labels(problem)
    if not labels:
        raise ValueError("cannot train without examples")
    v0 = convert_background(problem.background, ctx.atoms)
    idx_all = np.array([ctx.index_of(a) for a, _ in labels])
    y_all = np.array([y for _, y in labels], dtype=np.float64)
    batch = int(np.ceil(cfg.batch_frac * len(labels)))  # 1..len(labels)
    cones = _cones(ctx.x, idx_all, cfg.steps)
    if cfg.weight_mode == PAIR:
        # the largest cone any draw of `batch` labels can have
        widest = min(len(ctx), sum(sorted(map(len, cones))[-batch:]))
        floats = 3 * cfg.steps * len(clauses) ** 2 * widest
        if floats > PAIR_TAPE_FLOATS:
            raise ValueError(
                f"pair mode would record up to {floats:,} floats per epoch "
                f"(3·T·|C|²·|cone|, T={cfg.steps}, |C|={len(clauses)}, "
                f"|cone| <= {widest} of |G|={len(ctx)}); "
                f"the limit is {PAIR_TAPE_FLOATS:,} (1 GiB). Use multi weight mode"
            )

    rng = np.random.default_rng(cfg.seed)
    weights = WeightSet.random(cfg.m, len(clauses), cfg.seed, mode=cfg.weight_mode)
    cache = np.zeros_like(weights.w)
    history: list[float] = []
    sizes: list[int] = []
    for epoch in range(cfg.epochs):
        pick = rng.choice(len(labels), size=batch, replace=False)
        x, v0_cone, idx = _on_cone(ctx.x, v0, idx_all[pick], [cones[k] for k in pick])
        sizes.append(len(v0_cone))
        loss, grad = _loss_and_grad(x, v0_cone, weights, idx, y_all[pick], cfg)
        if not np.isfinite(loss):
            raise TrainingDiverged(
                f"non-finite loss at epoch {epoch}; retry with a different seed"
            )
        cache = RMS_DECAY * cache + (1 - RMS_DECAY) * grad * grad
        weights.w -= cfg.lr * grad / (np.sqrt(cache) + RMS_EPS)
        history.append(loss)
    if sizes:
        log.info(
            "training: |G|=%d, %d labelled atoms, batch cone median %d, max %d",
            len(ctx), len(labels), int(np.median(sizes)), max(sizes),
        )
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
