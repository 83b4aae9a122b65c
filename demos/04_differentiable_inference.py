"""Differentiable forward chaining: soft conjunction, soft disjunction, and
exact gradients through the whole unrolled inference.

Run: python demos/04_differentiable_inference.py
"""
import numpy as np

from softlog import ILPProblem, Language, parse_atom, parse_clause
from softlog.grounding import convert_background, ground_context
from softlog.infer import WeightSet, backward, infer, softor
from softlog.parser import print_atom
from softlog.prover import ProofConfig, entails

lang = Language(
    predicates=[("e", 1)], functions=[("s", 1)], constants=["0"],
    variables=["x", "y", "z", "v", "w"],
)
A = lambda t: parse_atom(t, lang)
problem = ILPProblem(
    pos=(A("e(s(s(s(s(s(s(0)))))))"),), neg=(A("e(s(0))"),),
    background=(A("e(0)"),), language=lang, initial_clauses=(),
)
step = parse_clause("e(s(s(x))) :- e(x)", lang)
fact = parse_clause("e(x)", lang)
clauses = [fact, step]
ctx = ground_context(problem, clauses, steps=3)
v0 = convert_background(problem.background, ctx.atoms)

print("== smooth disjunction: max plus a gamma-sized overshoot ==")
print("softor(0, 0)  at gamma=1e-5 ->", softor(np.zeros((2, 1)), 1e-5, axis=0)[0])
print("softor(1, 0)  at gamma=1e-5 ->", softor(np.array([[1.0], [0.0]]), 1e-5, axis=0)[0])

print("\n== valuations sharpen step by step (all weight on the recursion) ==")
w = WeightSet.one_hot([1], len(clauses))
for t in range(4):
    v = infer(ctx.x, v0, w, t)
    shown = {print_atom(a, lang): round(float(x), 4) for a, x in zip(ctx.atoms, v) if x > 0.01}
    print(f"t={t}: {shown}")

print("\n== rounding the final valuation equals proving within depth 3 ==")
v = infer(ctx.x, v0, w, 3)
soft = {a for a, x in zip(ctx.atoms, v) if x >= 0.5}
proved = {a for a in ctx.atoms if entails([step], problem.background, a, ProofConfig(3))}
print("agree:", soft == proved)

print("\n== gradients flow to the weights that matter ==")
# a smoother gamma makes the gradient landscape visible; training itself
# runs in the sharp regime
w = WeightSet.random(1, len(clauses), seed=0)
target = ctx.index_of(A("e(s(s(0)))"))
grad_out = np.zeros(len(ctx))
grad_out[target] = 1.0
_, tape = infer(ctx.x, v0, w, 3, gamma=0.1, record=True)
g = backward(tape, grad_out)
print("d v[e(s^2(0))] / d w =", np.round(g, 4))
print("(positive on the recursive clause: more weight there raises the value)")
