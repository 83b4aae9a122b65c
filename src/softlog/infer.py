"""Differentiable forward chaining over the index tensor.

One inference step gathers current valuations at the subgoal indexes, takes
the product over each clause body (soft conjunction) and mixes the clause
outputs under softmax weights, one mixture h_l per program slot.  The paper
then takes a smooth-or over the m mixtures and a second smooth-or with the
previous valuation v (amalgamation).  A smooth-or is a scaled log-sum-exp,
and log-sum-exp is associative:

    softor(v, softor(h_1, ..., h_m)) = softor(v, h_1, ..., h_m)

in real arithmetic, so each step runs one smooth-or over the stacked rows
[v; h_1; ...; h_m].  In pair mode the rows are [v; r], r the weighted sum of
the pairwise smooth-ors of clause outputs.  All arithmetic is float64 and
every log-sum-exp is max-shifted: the naive smooth-or computes exp(x / gamma)
with gamma around 1e-5, which overflows instantly, so the stable form is not
optional here.

Gradients are exact reverse-mode.  A recorded pass keeps, per step, a tuple
(others, mix, coef): for each gathered subgoal the product of the other
subgoals of its body (None for one-atom bodies), the clause outputs (multi
mode) or the pairwise smooth-ors and their coefficients (pair mode), and the
smooth-or coefficients of the stacked rows with the clamp mask folded in.
The backward sweep reads only the tape and never re-runs a step: coef[0]
carries the gradient to the previous valuation and coef[1:] to the
mixtures.  Over n atoms, a step keeps O(|C|·n·B) floats in multi mode, B the
body length, and three arrays of shape (|C|, |C|, n) in pair mode.

``infer`` can compute a shrinking prefix of the atoms at each step (its
``widths``), and the tape is then kept per prefix: step k's record covers
only the atoms that step computed, and the backward sweep scatters each
step's gradient into the previous step's prefix.  Training passes one
batch's dependency cone ordered by hop distance, so step k's prefix holds
the atoms within T - k hops of the batch, and a recorded pair-mode pass
holds 3·|C|²·Σ widths floats.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

MULTI = "multi"
PAIR = "pair"
ONE_HOT_LOGIT = 200.0  # WeightSet.one_hot: the rest of a row gets mass < e**-200


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def _softor_n(xs: np.ndarray, gamma: float):
    """Smooth maximum over the rows and its Jacobian coefficients (softmax of
    x / gamma), from one set of exponentials."""
    m = xs.max(axis=0)
    e = np.exp((xs - m) / gamma)
    s = e.sum(axis=0)
    return m + gamma * np.log(s), e / s


def softor(xs: np.ndarray, gamma: float, axis: int = 0) -> np.ndarray:
    """Smooth maximum gamma * log(sum(exp(x / gamma))) in max-shifted form.

    With a single argument along the axis this returns the input exactly
    (log of one exponential of zero).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return _softor_n(np.moveaxis(np.asarray(xs, dtype=np.float64), axis, 0), gamma)[0]


def softmax(w: np.ndarray, axis=None) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    m = w.max(axis=axis, keepdims=True)
    e = np.exp(w - m)
    return e / e.sum(axis=axis, keepdims=True)


def _prod_except(gv: np.ndarray) -> np.ndarray | None:
    """prod over the last axis excluding each position, division-free so zero
    entries keep exact gradients.  None for a one-atom body (the product of
    nothing is 1)."""
    if gv.shape[-1] == 1:
        return None
    ones = np.ones_like(gv[..., :1])
    left = np.concatenate([ones, np.cumprod(gv, axis=-1)[..., :-1]], axis=-1)
    rev = np.cumprod(gv[..., ::-1], axis=-1)[..., ::-1]
    right = np.concatenate([rev[..., 1:], ones], axis=-1)
    return left * right


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

@dataclass
class WeightSet:
    """Clause weights: ``multi`` holds one weight vector per program slot,
    ``pair`` holds a single matrix over clause pairs."""

    mode: str
    w: np.ndarray

    def __post_init__(self):
        if self.mode not in (MULTI, PAIR):
            raise ValueError(
                f"weight mode must be {MULTI!r} or {PAIR!r}, got {self.mode!r}"
            )
        if self.w.ndim != 2:
            raise ValueError(f"weights must be a matrix, got shape {self.w.shape}")
        if self.mode == PAIR and self.w.shape[0] != self.w.shape[1]:
            raise ValueError(f"pair weights must be square, got shape {self.w.shape}")

    @classmethod
    def random(
        cls,
        m: int,
        n_clauses: int,
        seed: int,
        mode: str = MULTI,
        scale: float = 0.1,
    ) -> "WeightSet":
        rng = np.random.default_rng(seed)
        shape = (m, n_clauses) if mode == MULTI else (n_clauses, n_clauses)
        return cls(mode, scale * rng.standard_normal(shape))

    @classmethod
    def one_hot(
        cls,
        slots: Sequence,
        n_clauses: int,
        mode: str = MULTI,
    ) -> "WeightSet":
        """Near-delta weights selecting the given clause index per slot (multi)
        or the given (i, j) pairs (pair): logit ONE_HOT_LOGIT, 0 elsewhere."""
        if mode == MULTI:
            w = np.zeros((len(slots), n_clauses))
            for l, i in enumerate(slots):
                w[l, i] = ONE_HOT_LOGIT
        else:
            w = np.zeros((n_clauses, n_clauses))
            for i, j in slots:
                w[i, j] = ONE_HOT_LOGIT
        return cls(mode, w)

    @property
    def n_clauses(self) -> int:
        return self.w.shape[1]

    @property
    def param_count(self) -> int:
        return self.w.size

    def distribution(self) -> np.ndarray:
        """Softmax over clauses per slot (multi) or over all pairs (pair)."""
        if self.mode == MULTI:
            return softmax(self.w, axis=1)
        return softmax(self.w.ravel()).reshape(self.w.shape)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

@dataclass
class Tape:
    mode: str
    dist: np.ndarray
    # per step, over the atoms it computed: (its index tensor, _prod_except
    # of the gather, mixture terms, coef)
    steps: list


def _step(
    v: np.ndarray, x: np.ndarray, dist: np.ndarray, mode: str, gamma: float, clamp: bool
) -> tuple:
    """One inference step over the atoms of ``x``'s rows, the first
    ``x.shape[1]`` of ``v``: their next valuation and what its gradient needs.

    The mixture terms are the clause outputs in multi mode and (pairwise
    smooth-ors, coefficient of each side) in pair mode; coef holds the
    smooth-or coefficients of the stacked rows, v first.
    """
    gv = v[x]
    v = v[: x.shape[1]]
    cm = gv[..., 0]
    for k in range(1, gv.shape[2]):
        cm = cm * gv[..., k]
    if mode == MULTI:
        rows = np.concatenate((v[None], dist @ cm))
        mix = cm
    else:
        pairs = np.broadcast_arrays(cm[:, None, :], cm[None, :, :])
        s, (ca, cb) = _softor_n(np.stack(pairs), gamma)
        # einsum sums each column in the same order wherever it sits; BLAS
        # (tensordot) would round an atom's score by its column position
        rows = np.stack((v, np.einsum("ij,ijg->g", dist, s)))
        mix = (s, ca, cb)
    v_next, coef = _softor_n(rows, gamma)
    if clamp:
        inside = v_next <= 1.0
        coef *= inside
        v_next = np.minimum(v_next, 1.0)
    return v_next, (_prod_except(gv), mix, coef)


def infer(
    x: np.ndarray,
    v0: np.ndarray,
    weights: WeightSet,
    steps: int,
    gamma: float = 1e-5,
    clamp: bool = False,
    record: bool = False,
    widths: Sequence[int] | None = None,
):
    """Run ``steps`` rounds of differentiable forward chaining.

    With ``widths`` (one per step, non-increasing), step k computes only the
    first ``widths[k]`` atoms, from the first ``widths[k - 1]`` valuations of
    the step before (all of ``v0`` at step 0).  The caller orders the atoms so
    that each prefix's subgoals lie in the previous prefix.  The returned
    valuation then covers the first ``widths[-1]`` atoms.

    Returns the final valuation, or (valuation, tape) when ``record`` so the
    caller can run :func:`backward`.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if widths is not None and len(widths) != steps:
        raise ValueError(f"need one width per step ({steps}), got {len(widths)}")
    v = np.asarray(v0, dtype=np.float64)
    dist = weights.distribution()
    recs = []
    for k in range(steps):
        # a gather reads a contiguous index array two to three times faster
        xk = x if widths is None else np.ascontiguousarray(x[:, : widths[k]])
        v, rec = _step(v, xk, dist, weights.mode, gamma, clamp)
        if record:
            recs.append((xk, *rec))
    if record:
        return v, Tape(weights.mode, dist, recs)
    return v


def backward(tape: Tape, grad_out: np.ndarray) -> np.ndarray:
    """Reverse-mode gradient of sum(grad_out * v_T) w.r.t. the weights.

    v0 is a constant, so the first step's gradient stops at the weights and
    is not scattered to its subgoals."""
    dist = tape.dist
    g_dist = np.zeros_like(dist)
    g = np.asarray(grad_out, dtype=np.float64)

    for k in range(len(tape.steps) - 1, -1, -1):
        x, others, mix, coef = tape.steps[k]
        g_rows = coef * g
        if tape.mode == MULTI:
            g_h = g_rows[1:]
            g_dist += g_h @ mix.T
        else:
            s, ca, cb = mix
            g_r = g_rows[1]
            g_dist += np.tensordot(s, g_r, axes=([2], [0]))
        if k == 0:
            break
        if tape.mode == MULTI:
            g_cm = dist.T @ g_h
        else:
            g_s = dist[:, :, None] * g_r
            g_cm = (g_s * ca).sum(axis=1) + (g_s * cb).sum(axis=0)

        g_gv = g_cm if others is None else g_cm[:, :, None] * others
        n_in = tape.steps[k - 1][3].shape[1]
        g = np.bincount(x.ravel(), weights=g_gv.ravel(), minlength=n_in)
        g[: x.shape[1]] += g_rows[0]

    # through softmax: J^T u = p * (u - <u, p>) per distribution
    axis = 1 if tape.mode == MULTI else None
    inner = (g_dist * dist).sum(axis=axis, keepdims=True)
    return dist * (g_dist - inner)
