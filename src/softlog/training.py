"""Weight optimization: cross-entropy on example labels, RMSProp updates,
program extraction, and evaluation metrics."""
from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .grounding import FALSE_INDEX, TRUE_INDEX, GroundContext, convert_background
from .infer import MULTI, PAIR, WeightSet, backward, infer
from .logic import Atom, Clause, canonical
from .problem import ILPProblem
from .prover import MAX_HORIZON

log = logging.getLogger(__name__)

PRED_CLIP = 1e-7
# A recorded pair-mode pass keeps 3·|C|² floats per atom and step it computes,
# 3·|C|²·Σ widths in all (see ``_on_cone``); 2**27 is 1 GiB.
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

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"TrainConfig.m must be >= 1, got {self.m}")
        if not 1 <= self.steps <= MAX_HORIZON:
            raise ValueError(
                f"TrainConfig.steps must be >= 1 and <= {MAX_HORIZON}, got {self.steps}"
            )
        if not self.gamma > 0:
            raise ValueError(f"TrainConfig.gamma must be positive, got {self.gamma}")
        if not self.lr > 0:
            raise ValueError(f"TrainConfig.lr must be positive, got {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"TrainConfig.epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"TrainConfig.seed must be >= 0, got {self.seed}")
        if not 0 < self.batch_frac <= 1:
            raise ValueError(
                f"TrainConfig.batch_frac must be in (0, 1], got {self.batch_frac}"
            )
        if self.weight_mode not in (MULTI, PAIR):
            raise ValueError(
                f"TrainConfig.weight_mode must be {MULTI!r} or {PAIR!r}, "
                f"got {self.weight_mode!r}"
            )


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
    clamp: bool = False,
) -> np.ndarray:
    v = infer(ctx.x, v0, weights, steps, gamma, clamp=clamp)
    return np.array([v[ctx.index_of(a)] for a in atoms])


def _loss_and_grad(x, v0, weights, idx, y, cfg, widths=None):
    """Mean cross-entropy over one batch plus its weight gradient; ``widths``
    as in :func:`infer`."""
    v_t, tape = infer(
        x, v0, weights, cfg.steps, cfg.gamma, clamp=cfg.clamp, record=True,
        widths=widths,
    )
    p = v_t[idx]
    pc = np.clip(p, PRED_CLIP, 1.0 - PRED_CLIP)
    loss = float(np.mean(-np.log(np.where(y == 1, pc, 1 - pc))))
    # exact gradient of the clipped loss: flat (zero) outside the clip range
    inside = (p > PRED_CLIP) & (p < 1.0 - PRED_CLIP)
    dp = np.where(inside, (pc - y) / (pc * (1 - pc)) / len(idx), 0.0)
    grad_out = np.bincount(idx, weights=dp, minlength=len(v_t))
    return loss, backward(tape, grad_out)


def _hops(x: np.ndarray, roots: np.ndarray, steps: int) -> np.ndarray:
    """Hop distances, one row per root over all atoms: the fewest subgoal
    hops from the root to each atom, ``steps + 1`` beyond ``steps`` hops.
    False and true are at distance 0 from every root.

    v_T at a root reads v_{T-d} at an atom d hops away, so step k (1..T)
    needs exactly the atoms within T - k hops, and v0 those within T.
    """
    subgoals = x.transpose(1, 0, 2).reshape(x.shape[1], -1)
    dtype = np.min_scalar_type(steps + 1)  # one byte up to T = MAX_HORIZON
    out = np.full((len(roots), x.shape[1]), steps + 1, dtype=dtype)
    out[:, [FALSE_INDEX, TRUE_INDEX]] = 0
    for hops, root in zip(out, roots):
        hops[root] = 0
        frontier = np.array([root])
        for d in range(1, steps + 1):
            reached = np.zeros(len(hops), dtype=bool)
            reached[subgoals[frontier]] = True
            frontier = np.flatnonzero(reached & (hops > d))
            if not len(frontier):
                break
            hops[frontier] = d
    return out


def _on_cone(
    x: np.ndarray, v0: np.ndarray, idx: np.ndarray, near: np.ndarray, steps: int
):
    """Restrict a batch to its dependency cone, layered by ``near``, each
    atom's hop distance to the nearest batch atom (see ``_hops``).

    The cone's atoms are ordered by that distance (false, true and the batch
    atoms first), so the atoms step k computes, those within T - k hops, are
    a prefix whose subgoals lie in the prefix of step k - 1.  Returns the
    tensor rows of step 1's prefix with subgoals renumbered, v0 over the cone,
    the batch indexes and the per-step widths for :func:`infer`.
    """
    order = np.argsort(near, kind="stable")
    # within[d]: the atoms within d hops (on a few Python ints, faster than
    # np.cumsum)
    counts = np.bincount(near, minlength=steps + 1)[: steps + 1].tolist()
    within = list(accumulate(counts))
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    widths = within[-2::-1]  # step k: the atoms within T - k hops
    x_cone = position[x[:, order[: widths[0]]]]
    return x_cone, v0[order[: within[-1]]], position[idx], widths


def train(
    problem: ILPProblem, ctx: GroundContext, cfg: TrainConfig
) -> tuple[WeightSet, list[float]]:
    """RMSProp over mini-batches sampled without replacement each epoch.

    Each epoch infers and back-propagates over the batch's dependency cone
    only, in layers: step k computes only the atoms within T - k subgoal hops
    of a batch atom (see ``_hops`` and ``_on_cone``), the atoms whose step-k
    valuations can still reach a label.  The result equals a pass over all of
    G in real arithmetic, and the recorded pass holds per-step arrays over
    those prefixes, not over |G|: 3·|C|²·Σ widths floats in pair mode.

    The weights cover the grounding's clauses, one per row of ``ctx.x``.
    Returns the trained weights and the per-epoch loss history.  Identical
    seeds and inputs give bit-identical histories.
    """
    labels = make_labels(problem)
    if not labels:
        raise ValueError("cannot train without examples")
    v0 = convert_background(problem.background, ctx.atoms)
    idx_all = np.array([ctx.index_of(a) for a, _ in labels])
    y_all = np.array([y for _, y in labels], dtype=np.float64)
    batch = int(np.ceil(cfg.batch_frac * len(labels)))  # 1..len(labels)
    hops = _hops(ctx.x, idx_all, cfg.steps)
    n_clauses = len(ctx.x)
    if cfg.weight_mode == PAIR:
        # the most atom-steps any draw of `batch` labels can compute: a label
        # alone computes an atom h hops away at max(0, T - h) steps
        work = np.maximum(0, cfg.steps - hops.astype(np.int64)).sum(axis=1)
        most = min(cfg.steps * len(ctx), int(np.sort(work)[-batch:].sum()))
        floats = 3 * n_clauses**2 * most
        if floats > PAIR_TAPE_FLOATS:
            raise ValueError(
                f"pair mode would record up to {floats:,} floats per epoch "
                f"(3·|C|²·Σ widths, |C|={n_clauses}, Σ widths <= {most} "
                f"atom-steps of T·|G|={cfg.steps * len(ctx)}); "
                f"the limit is {PAIR_TAPE_FLOATS:,} (1 GiB). Use multi weight mode"
            )

    rng = np.random.default_rng(cfg.seed)
    weights = WeightSet.random(cfg.m, n_clauses, cfg.seed, mode=cfg.weight_mode)
    cache = np.zeros_like(weights.w)
    history: list[float] = []
    sizes: list[int] = []
    work: list[int] = []
    for epoch in range(cfg.epochs):
        pick = rng.choice(len(labels), size=batch, replace=False)
        x, v0_cone, idx, widths = _on_cone(
            ctx.x, v0, idx_all[pick], hops[pick].min(axis=0), cfg.steps
        )
        sizes.append(len(v0_cone))
        work.append(sum(widths))
        loss, grad = _loss_and_grad(x, v0_cone, weights, idx, y_all[pick], cfg, widths)
        if not np.isfinite(loss):
            raise TrainingDiverged(
                f"non-finite loss at epoch {epoch}; retry with a different seed"
            )
        cache = RMS_DECAY * cache + (1 - RMS_DECAY) * grad * grad
        weights.w -= cfg.lr * grad / (np.sqrt(cache) + RMS_EPS)
        history.append(loss)
    if sizes:
        log.info(
            "training: |G|=%d, %d labelled atoms, batch cone median %d, max %d; "
            "atoms computed per epoch median %d of T·|cone| %d",
            len(ctx), len(labels), int(np.median(sizes)), max(sizes),
            int(np.median(work)), cfg.steps * int(np.median(sizes)),
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

def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Mann-Whitney AUC: the share of (positive, negative) pairs whose
    positive scores higher; ties count one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = np.sort(scores[labels == 0])
    if not len(pos) or not len(neg):
        raise ValueError("AUC needs both classes")
    # per positive: twice the negatives below it, plus those tied with it
    u = (np.searchsorted(neg, pos, "left") + np.searchsorted(neg, pos, "right")).sum()
    return float(u / 2 / (len(pos) * len(neg)))


def mse(scores: Sequence[float], labels: Sequence[int]) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return float(np.mean((scores - labels) ** 2))


def metrics(scores: Sequence[float], labels: Sequence[int]) -> dict:
    return {"auc": auc(scores, labels), "mse": mse(scores, labels)}
