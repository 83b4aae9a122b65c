"""Differentiable forward chaining over the index tensor.

One inference step gathers current valuations at the subgoal indexes, takes
the product over each clause body (soft conjunction), mixes clause outputs
under softmax weights, combines the mixtures with a smooth maximum (soft
disjunction), and amalgamates with the previous valuation.  All arithmetic is
float64 and every log-sum-exp is max-shifted: the naive smooth-or computes
exp(x / gamma) with gamma around 1e-5, which overflows instantly, so the
stable form is not optional here.

Gradients are exact reverse-mode.  A recorded pass keeps, per step, what the
gradient needs: for each gathered subgoal the product of the other subgoals
of its body, the smooth-or coefficients of the mixture and of the
amalgamation (the clamp mask folded into the latter), and the clause outputs
(multi mode) or pairwise smooth-ors (pair mode) that the weight gradient
contracts with.  The backward sweep reads only the tape and never re-runs a
step.  Over n atoms, a step keeps O(|C|·n·B) floats in multi mode, B the
body length, and three arrays of shape (|C|, |C|, n) in pair mode.  Training
passes the tensor of one batch's dependency cone, so n is the cone size, not
|G|, and a recorded pair-mode pass holds about 3·T·|C|²·|cone| floats.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

MULTI = "multi"
PAIR = "pair"


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def _softor_n(xs: np.ndarray, gamma: float, axis: int = 0):
    """Smooth maximum along the axis and its Jacobian coefficients (softmax of
    x / gamma), from one set of exponentials."""
    m = xs.max(axis=axis, keepdims=True)
    e = np.exp((xs - m) / gamma)
    s = e.sum(axis=axis, keepdims=True)
    return np.squeeze(m + gamma * np.log(s), axis=axis), e / s


def _softor2(a: np.ndarray, b: np.ndarray, gamma: float):
    """Smooth maximum of two broadcastable arrays and its coefficients with
    respect to each."""
    m = np.maximum(a, b)
    ea = np.exp((a - m) / gamma)
    eb = np.exp((b - m) / gamma)
    s = ea + eb
    return m + gamma * np.log(s), ea / s, eb / s


def softor(xs: np.ndarray, gamma: float, axis: int = 0) -> np.ndarray:
    """Smooth maximum gamma * log(sum(exp(x / gamma))) in max-shifted form.

    With a single argument along the axis this returns the input exactly
    (log of one exponential of zero).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return _softor_n(np.asarray(xs, dtype=np.float64), gamma, axis)[0]


def softmax(w: np.ndarray, axis=None) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    m = w.max(axis=axis, keepdims=True)
    e = np.exp(w - m)
    return e / e.sum(axis=axis, keepdims=True)


def _prod_except(gv: np.ndarray) -> np.ndarray:
    """prod over the last axis excluding each position, division-free so zero
    entries keep exact gradients.  A one-atom body gives a broadcast 1."""
    b = gv.shape[-1]
    if b == 1:
        return np.ones((1,) * gv.ndim)
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
        logit: float = 200.0,
    ) -> "WeightSet":
        """Near-delta weights selecting the given clause index per slot (multi)
        or the given (i, j) pairs (pair)."""
        if mode == MULTI:
            w = np.zeros((len(slots), n_clauses))
            for l, i in enumerate(slots):
                w[l, i] = logit
        else:
            w = np.zeros((n_clauses, n_clauses))
            for i, j in slots:
                w[i, j] = logit
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
    x: np.ndarray
    mode: str
    dist: np.ndarray
    steps: list  # per step: (_prod_except of the gather, mixture terms, coef_v, coef_r)


def _step(
    v: np.ndarray, x: np.ndarray, dist: np.ndarray, mode: str, gamma: float, clamp: bool
) -> tuple:
    """One inference step: the next valuation and what its gradient needs.

    The mixture terms are (clause outputs, smooth-or coefficients) in multi
    mode and (pairwise smooth-ors, coefficient of each side) in pair mode.
    """
    gv = v[x]
    cm = gv.prod(axis=2)
    if mode == MULTI:
        r, q = _softor_n(dist @ cm, gamma)
        mix = (cm, q)
    else:
        s, ca, cb = _softor2(cm[:, None, :], cm[None, :, :], gamma)
        r = np.tensordot(dist, s, axes=([0, 1], [0, 1]))
        mix = (s, ca, cb)
    v_next, coef_v, coef_r = _softor2(v, r, gamma)
    if clamp:
        inside = v_next <= 1.0
        coef_v = coef_v * inside
        coef_r = coef_r * inside
        v_next = np.minimum(v_next, 1.0)
    return v_next, (_prod_except(gv), mix, coef_v, coef_r)


def infer(
    x: np.ndarray,
    v0: np.ndarray,
    weights: WeightSet,
    steps: int,
    gamma: float = 1e-5,
    clamp: bool = False,
    record: bool = False,
):
    """Run ``steps`` rounds of differentiable forward chaining.

    Returns the final valuation, or (valuation, tape) when ``record`` so the
    caller can run :func:`backward`.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    v = np.asarray(v0, dtype=np.float64)
    dist = weights.distribution()
    recs = []
    for _ in range(steps):
        v, rec = _step(v, x, dist, weights.mode, gamma, clamp)
        if record:
            recs.append(rec)
    if record:
        return v, Tape(x, weights.mode, dist, recs)
    return v


def backward(tape: Tape, grad_out: np.ndarray) -> np.ndarray:
    """Reverse-mode gradient of sum(grad_out * v_T) w.r.t. the weights."""
    x, dist = tape.x, tape.dist
    g_dist = np.zeros_like(dist)
    g = np.asarray(grad_out, dtype=np.float64)

    for others, mix, coef_v, coef_r in reversed(tape.steps):
        g_v = g * coef_v
        g_r = g * coef_r
        if tape.mode == MULTI:
            cm, q = mix
            g_h = q * g_r[None, :]
            g_dist += g_h @ cm.T
            g_cm = dist.T @ g_h
        else:
            s, ca, cb = mix
            g_dist += np.tensordot(s, g_r, axes=([2], [0]))
            g_s = dist[:, :, None] * g_r[None, None, :]
            g_cm = (g_s * ca).sum(axis=1) + (g_s * cb).sum(axis=0)

        g_gv = g_cm[:, :, None] * others
        np.add.at(g_v, x.ravel(), g_gv.ravel())
        g = g_v

    # through softmax: J^T u = p * (u - <u, p>) per distribution
    axis = 1 if tape.mode == MULTI else None
    inner = (g_dist * dist).sum(axis=axis, keepdims=True)
    return dist * (g_dist - inner)
