"""Clause refinement operators and scored beam search over the clause lattice.

A clause is weakened four ways: substitute a function term, substitute a
constant, merge two variables, or append a body atom.  The beam keeps the
candidates that entail the most positive examples.

Run: python demos/02_refinement_and_beam.py
"""
from softlog import BeamConfig, ILPProblem, Language, beam_search, parse_atom, parse_clause
from softlog.parser import print_clause
from softlog.prover import ProofConfig, eval_counts
from softlog.search import refine, rho_add, rho_fun, rho_rep, rho_sub

lang = Language(
    predicates=[("p", 2), ("q", 2)],
    functions=[("f", 1)],
    constants=["a", "b", "c"],
    variables=["x", "y", "z"],
)
seed = parse_clause("p(x,y)", lang)

print("== the four refinement operators on p(x,y) ==")
for name, op in (("fun", rho_fun), ("sub", rho_sub), ("rep", rho_rep), ("add", rho_add)):
    out = ", ".join(print_clause(c, lang) for c in op(seed, lang))
    print(f"rho_{name}: {out}")

print("\nfiltered union (body <= 1, nesting <= 1):")
for c in refine(seed, lang):
    print("  ", print_clause(c, lang))

# A tiny identity-relation problem: p holds between equal things, plus two
# exceptional pairs recorded in the background relation q.
A = lambda t: parse_atom(t, lang)
problem = ILPProblem(
    pos=(A("p(a,a)"), A("p(b,b)"), A("p(b,c)"), A("p(c,b)")),
    neg=(A("p(a,b)"), A("p(b,a)")),
    background=(A("q(b,c)"), A("q(c,b)")),
    language=lang,
    initial_clauses=(seed,),
)

print("\n== scores: positives entailed together with the background ==")
for text in ("p(x,x)", "p(x,y) :- q(x,y)", "p(b,y)", "p(f(x),y)"):
    c = parse_clause(text, lang)
    pos, neg = eval_counts(c, problem, ProofConfig(2))
    print(f"  {print_clause(c, lang):24s} -> {len(pos)} positives, {len(neg)} negatives")

print("\n== two beam steps, width two ==")
for c in beam_search([seed], problem, BeamConfig(beam_size=2, beam_steps=2),
                     proof_cfg=ProofConfig(2)):
    print("  kept:", print_clause(c, lang))
