"""Candidate-clause generation: scored beam search and the naive breadth-first
baseline."""
from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .logic import Clause, canonical, canonical_in, nest_depth
from .problem import ILPProblem
from .prover import ProofConfig, eval_counts
from .refine import RefinementConfig, refine

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int = 10
    beam_steps: int = 5
    prune_zero: bool = True
    # extension: score = positives - neg_penalty * negatives; off by default,
    # the plain score counts positives only
    neg_penalty: float = 0.0

    def __post_init__(self):
        if self.beam_size < 1 or self.beam_steps < 1:
            raise ValueError("beam_size and beam_steps must be >= 1")
        if self.neg_penalty < 0:
            raise ValueError("neg_penalty must be >= 0")


def beam_search(
    initial: list[Clause],
    problem: ILPProblem,
    cfg: BeamConfig,
    refine_cfg: RefinementConfig = RefinementConfig(),
    proof_cfg: ProofConfig = ProofConfig(),
    max_clauses: Optional[int] = None,
) -> list[Clause]:
    """Grow candidates from the initial clauses by iterated refinement.

    Each round opens the current beam (adding it to the result), scores every
    refinement by the number of positives it entails together with the
    background, and keeps the top ``beam_size`` as the next beam.  Only opened
    clauses enter the result, so the final round's refinements are scored but
    never returned.  With ``max_clauses`` the search stops once that many
    clauses are collected (the generation-budget comparison against the
    unscored baseline).  Output is deduplicated by canonical form and ordered
    by score (descending), ties by canonical text.

    Every refinement operator specialises: the parent θ-subsumes the child,
    so at the same proof depth the child proves a subset of the examples the
    parent proves.  A refinement is therefore proved only on its parent's
    covered examples (initial clauses on all of them), which gives the same
    scores as proving it on every example.
    """
    if not initial:
        raise ValueError("at least one initial clause is required")
    base_nest = max(nest_depth(c) for c in initial)
    collected: dict = {}  # canonical clause -> (clause, rank key)
    covers: dict = {}  # canonical clause -> (covered pos indexes, neg indexes)
    n_examples = len(problem.pos) + len(problem.neg)
    proofs = 0

    def cover_of(key: Clause, c: Clause, within: Optional[tuple] = None) -> tuple:
        nonlocal proofs
        if key not in covers:
            covers[key] = eval_counts(c, problem, proof_cfg, within)
            proofs += n_examples if within is None else len(within[0]) + len(within[1])
        return covers[key]

    def ranked(cover: tuple, c: Clause) -> tuple:
        # Equal scores are broken toward clauses entailing fewer negatives
        # (promising = many positives, few negatives), then toward shorter
        # bodies (more general), then canonical text for determinism.
        p, n = len(cover[0]), len(cover[1])
        return (-(p - cfg.neg_penalty * n), n, len(c.body), repr(canonical(c)))

    to_open = list(dict.fromkeys(initial))
    full = False
    for _ in range(cfg.beam_steps):
        buffer: list[tuple[tuple, Clause]] = []
        buffered = set()
        for c in to_open:
            ck = canonical(c)
            cover = cover_of(ck, c)
            if ck not in collected:
                rep = canonical_in(c, problem.language.variables)
                collected[ck] = (rep, ranked(cover, c))
                if max_clauses is not None and len(collected) >= max_clauses:
                    full = True
                    break
            for r in refine(c, problem.language, refine_cfg, base_nest=base_nest):
                rk = canonical(r)
                if rk in collected or rk in buffered:
                    continue
                r_cover = cover_of(rk, r, cover)
                if cfg.prune_zero and not r_cover[0]:
                    continue
                buffered.add(rk)
                buffer.append((ranked(r_cover, r), r))
        if full:
            break
        buffer.sort(key=lambda item: item[0])
        to_open = [r for _, r in buffer[: cfg.beam_size]]
        if not to_open:
            break
    log.info(
        "beam: clauses scored=%d, example proofs=%d of %d (clauses x |E|)",
        len(covers), proofs, len(covers) * n_examples,
    )
    ordered = sorted(collected.values(), key=lambda item: item[1])
    return [c for c, _ in ordered]


def naive_generate(
    initial: list[Clause],
    problem: ILPProblem,
    n_clause: int,
    refine_cfg: RefinementConfig = RefinementConfig(),
) -> list[Clause]:
    """Breadth-first refinement with no example-based scoring, stopping once
    ``n_clause`` alpha-distinct clauses are collected."""
    if not initial:
        raise ValueError("at least one initial clause is required")
    if n_clause < 1:
        raise ValueError("n_clause must be >= 1")
    base_nest = max(nest_depth(c) for c in initial)
    out: list[Clause] = []
    seen = set()
    queue = deque(initial)
    while queue and len(out) < n_clause:
        c = queue.popleft()
        key = canonical(c)
        if key in seen:
            continue
        seen.add(key)
        out.append(canonical_in(c, problem.language.variables))
        queue.extend(refine(c, problem.language, refine_cfg, base_nest=base_nest))
    return out
