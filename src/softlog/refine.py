"""Clause refinement: the four weakening operators plus syntactic bias filters."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Optional

from .logic import (
    Atom,
    Clause,
    Const,
    Func,
    Language,
    Var,
    apply_subst,
    canonical,
    nest_depth,
    variables,
)


@dataclass(frozen=True)
class RefinementConfig:
    """Syntactic biases: maximum body length and function-nesting allowance."""

    n_body: int = 1
    n_nest: int = 1

    def __post_init__(self):
        if self.n_body < 0 or self.n_nest < 0:
            raise ValueError("n_body and n_nest must be >= 0")


def rho_fun(c: Clause, lang: Language) -> list[Clause]:
    """Substitute each variable by a function of fresh pairwise-distinct
    variables drawn from the unused part of the pool.

    Only the first fresh assignment per (variable, symbol) pair is emitted;
    the alternatives are alpha-equivalent.  Empty when the pool is short.
    """
    out = []
    vs = variables(c)
    free = [Var(n) for n in lang.variables if Var(n) not in vs]
    for z in vs:
        for fname, arity in lang.functions:
            if len(free) < arity:
                continue
            out.append(apply_subst(c, {z: Func(fname, free[:arity])}))
    return out


def rho_sub(c: Clause, lang: Language) -> list[Clause]:
    """Substitute each variable by each constant."""
    out = []
    for z in variables(c):
        for a in lang.constants:
            out.append(apply_subst(c, {z: Const(a)}))
    return out


def rho_rep(c: Clause, lang: Language) -> list[Clause]:
    """Replace a variable by another variable of the clause; results are
    deduplicated up to alpha-equivalence."""
    out: list[Clause] = []
    seen = set()
    vs = variables(c)
    for z in vs:
        for y in vs:
            if z == y:
                continue
            r = apply_subst(c, {z: y})
            key = canonical(r)
            if key not in seen:
                seen.add(key)
                out.append(r)
    return out


def rho_add(c: Clause, lang: Language) -> list[Clause]:
    """Append one body atom over each ordered tuple of distinct clause
    variables, for every predicate, in the order of first occurrence."""
    out = []
    vs = variables(c)
    for pname, arity in lang.predicates:
        for tup in permutations(vs, arity):
            out.append(Clause(c.head, c.body + (Atom(pname, tup),)))
    return out


def refine(
    c: Clause,
    lang: Language,
    cfg: RefinementConfig = RefinementConfig(),
    base_nest: Optional[int] = None,
) -> list[Clause]:
    """Union of the four operators, bias-filtered and deduplicated.

    The nesting filter is step-relative: a refinement is kept while the
    clause's maximum nest depth stays within ``n_nest`` plus the depth
    inherited from the lineage seed (``base_nest``; defaults to the depth of
    ``c`` itself so refining an externally supplied deep clause is never
    vacuously empty).  Output never contains ``c`` or alpha-duplicates.
    """
    if base_nest is None:
        base_nest = nest_depth(c)
    cap = cfg.n_nest + base_nest
    out: list[Clause] = []
    seen = {canonical(c)}
    for op in (rho_fun, rho_sub, rho_rep, rho_add):
        for r in op(c, lang):
            if len(r.body) > cfg.n_body:
                continue
            if nest_depth(r) > cap:
                continue
            key = canonical(r)
            if key in seen:
                continue
            seen.add(key)
            out.append(r)
    return out

