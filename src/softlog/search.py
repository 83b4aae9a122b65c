"""Candidate-clause generation: the four refinement operators with their
syntactic bias filters, the scored beam search that walks them, and the
naive breadth-first baseline."""
from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from itertools import permutations
from typing import Optional

from .logic import (
    Atom,
    Clause,
    Const,
    Func,
    ILPProblem,
    Language,
    MAX_TERM_DEPTH,
    Var,
    apply_subst,
    canonical,
    canonical_in,
    check_field_types,
    nest_depth,
    variables,
)
from .prover import ProofConfig, eval_counts

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BeamConfig:
    """The clause search: the beam's width and rounds, and the syntactic
    biases of the refinement space, maximum body length and function-nesting
    allowance."""

    beam_size: int = 10
    beam_steps: int = 5
    n_body: int = 1
    n_nest: int = 1

    def __post_init__(self):
        check_field_types(self)
        if self.beam_size < 1 or self.beam_steps < 1:
            raise ValueError("beam_size and beam_steps must be >= 1")
        if self.n_body < 0 or self.n_nest < 0:
            raise ValueError("n_body and n_nest must be >= 0")


def rho_fun(c: Clause, lang: Language) -> list[Clause]:
    """Substitute each variable by a function of fresh pairwise-distinct
    variables drawn from the unused part of the pool.

    Only the first fresh assignment per (variable, symbol) pair is emitted;
    the alternatives are alpha-equivalent.  Empty when the pool is short.
    """
    vs = variables(c)
    free = [Var(n) for n in lang.variables if Var(n) not in vs]
    return [
        apply_subst(c, {z: Func(fname, free[:arity])})
        for z in vs for fname, arity in lang.functions if len(free) >= arity
    ]


def rho_sub(c: Clause, lang: Language) -> list[Clause]:
    """Substitute each variable by each constant."""
    return [apply_subst(c, {z: Const(a)}) for z in variables(c) for a in lang.constants]


def rho_rep(c: Clause, lang: Language) -> list[Clause]:
    """Replace a variable by another variable of the clause.  Results repeat
    up to alpha-equivalence (replacing z by y or y by z); ``refine`` keeps
    the first of each."""
    vs = variables(c)
    return [apply_subst(c, {z: y}) for z in vs for y in vs if z != y]


def rho_add(c: Clause, lang: Language) -> list[Clause]:
    """Append one body atom over each ordered tuple of distinct clause
    variables, for every predicate, in the order of first occurrence."""
    vs = variables(c)
    return [
        Clause(c.head, c.body + (Atom(pname, tup),))
        for pname, arity in lang.predicates for tup in permutations(vs, arity)
    ]


def refine(
    c: Clause,
    lang: Language,
    cfg: BeamConfig = BeamConfig(),
    base_nest: Optional[int] = None,
) -> list[Clause]:
    """Union of the four operators, bias-filtered and deduplicated.

    The nesting filter is step-relative: a refinement is kept while the
    clause's maximum nest depth stays within ``n_nest`` plus the depth
    inherited from the lineage seed (``base_nest``; defaults to the depth of
    ``c`` itself so refining an externally supplied deep clause is never
    vacuously empty), at most ``MAX_TERM_DEPTH``.  No ``c`` or alpha-duplicates.
    """
    if base_nest is None:
        base_nest = nest_depth(c)
    cap = min(cfg.n_nest + base_nest, MAX_TERM_DEPTH)
    out: list[Clause] = []
    seen = {canonical(c)}
    for op in (rho_fun, rho_sub, rho_rep, rho_add):
        for r in op(c, lang):
            if len(r.body) > cfg.n_body or nest_depth(r) > cap:
                continue
            key = canonical(r)
            if key in seen:
                continue
            seen.add(key)
            out.append(r)
    return out


def check_clause_budget(naive_n: Optional[int] = None, clause_cap: Optional[int] = None) -> None:
    """A run's clause budget: ``naive_n`` clauses of unscored generation or a
    beam capped at ``clause_cap`` clauses, not both, and each at least 1."""
    if naive_n is not None and clause_cap is not None:
        raise ValueError("give naive_n (no beam) or clause_cap (a capped beam), not both")
    if naive_n is not None and naive_n < 1:
        raise ValueError("n_clause must be >= 1")
    if clause_cap is not None and clause_cap < 1:
        raise ValueError(f"max_clauses must be >= 1, got {clause_cap}")


def beam_search(
    initial: list[Clause],
    problem: ILPProblem,
    cfg: BeamConfig,
    proof_cfg: ProofConfig = ProofConfig(),
    max_clauses: Optional[int] = None,
) -> list[Clause]:
    """Grow candidates from the initial clauses by iterated refinement.

    Each round opens the current beam (adding it to the result), scores every
    refinement by the number of positives it entails together with the
    background, drops those entailing none, and keeps the top ``beam_size``
    as the next beam.  Only opened clauses enter the result, so the last
    round opens its beam and refines nothing.  With ``max_clauses``
    the search stops once that many clauses are collected (the
    generation-budget comparison against the unscored baseline).  Output is
    deduplicated by canonical form and ordered by score (descending), ties by
    canonical text.

    Every refinement operator specialises: the parent θ-subsumes the child,
    so at the same proof depth the child proves a subset of the examples the
    parent proves.  A refinement is therefore proved only on its parent's
    covered examples (initial clauses on all of them), which gives the same
    scores as proving it on every example.
    """
    if not initial:
        raise ValueError("at least one initial clause is required")
    check_clause_budget(clause_cap=max_clauses)
    base_nest = max(nest_depth(c) for c in initial)
    scored: dict = {}  # canonical clause -> (cover, rank key)
    collected: dict = {}  # canonical clause -> clause in the language's variables
    n_examples = len(problem.pos) + len(problem.neg)
    proofs = 0

    def score(key: Clause, c: Clause, within: Optional[tuple] = None) -> tuple:
        # The cover is (covered pos indexes, neg indexes).  Equal scores are
        # broken toward clauses entailing fewer negatives (promising = many
        # positives, few negatives), then toward shorter bodies (more
        # general), then canonical text for determinism.
        nonlocal proofs
        if key not in scored:
            cover = eval_counts(c, problem, proof_cfg, within)
            proofs += n_examples if within is None else len(within[0]) + len(within[1])
            scored[key] = (cover, (-len(cover[0]), len(cover[1]), len(c.body), repr(key)))
        return scored[key]

    to_open = list(dict.fromkeys(initial))
    for rounds_left in reversed(range(cfg.beam_steps)):
        buffer: dict = {}  # canonical refinement -> (rank key, refinement)
        for c in to_open:
            ck = canonical(c)
            cover, _ = score(ck, c)
            if ck not in collected:
                collected[ck] = canonical_in(c, problem.language.variables)
                if max_clauses is not None and len(collected) >= max_clauses:
                    break
            if not rounds_left:  # no round is left to open a refinement
                continue
            for r in refine(c, problem.language, cfg, base_nest=base_nest):
                rk = canonical(r)
                if rk in collected or rk in buffer:
                    continue
                r_cover, r_rank = score(rk, r, cover)
                if r_cover[0]:
                    buffer[rk] = (r_rank, r)
        else:  # the whole beam opened: its best refinements form the next one
            best = sorted(buffer.values(), key=lambda item: item[0])[: cfg.beam_size]
            to_open = [r for _, r in best]
            if to_open:
                continue
        break  # budget reached, last round opened, or no refinement proves a positive
    log.info(
        "beam: clauses scored=%d, example proofs=%d of %d (clauses x |E|)",
        len(scored), proofs, len(scored) * n_examples,
    )
    return [collected[k] for k in sorted(collected, key=lambda k: scored[k][1])]


def naive_generate(
    initial: list[Clause],
    problem: ILPProblem,
    n_clause: int,
    cfg: BeamConfig = BeamConfig(),
) -> list[Clause]:
    """Breadth-first refinement with no example-based scoring, stopping once
    ``n_clause`` alpha-distinct clauses are collected from ``cfg``'s space."""
    if not initial:
        raise ValueError("at least one initial clause is required")
    check_clause_budget(naive_n=n_clause)
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
        queue.extend(refine(c, problem.language, cfg, base_nest=base_nest))
    return out
