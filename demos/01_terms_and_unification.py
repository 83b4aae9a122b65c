"""First-order terms with function symbols, list sugar, and one-way matching
of a clause head against a ground atom.

Run: python demos/01_terms_and_unification.py
"""
from softlog import Language, apply_subst, parse_atom, parse_clause, parse_term, unify
from softlog.parser import print_atom, print_clause, print_term

lang = Language(
    predicates=[("mem", 2)],
    functions=[("f", 2)],
    constants=["a", "b", "c", "*"],
    variables=["x", "y", "z", "v", "w"],
)

print("== lists are sugar over a binary constructor ==")
t = parse_term("[a,b]", lang)
print("parse('[a,b]')      ->", repr(t), "   printed back:", print_term(t, lang))
print("parse('[x|y]')      ->", repr(parse_term("[x|y]", lang)))
print("parse('[]')         ->", repr(parse_term("[]", lang)))

print("\n== a clause head matched one way against a ground atom ==")
pattern = parse_atom("mem(x,[y|z])", lang)
ground = parse_atom("mem(a,[b,a])", lang)
theta = unify(pattern, ground)
print(f"unify({print_atom(pattern, lang)}, {print_atom(ground, lang)}):")
print("substitution:", ", ".join(f"{v} = {print_term(t, lang)}" for v, t in theta.items()))
print("applied:", print_atom(apply_subst(pattern, theta), lang))

print("\n== a repeated variable must match equal subterms ==")
clash = parse_atom("mem(x,[x|y])", lang)
print(f"unify({print_atom(clash, lang)}, {print_atom(ground, lang)}) ->", unify(clash, ground))

print("\n== clauses ==")
c = parse_clause("mem(x,[y|z]) :- mem(x,z)", lang)
print("clause:", print_clause(c, lang))
print("internal form:", repr(c))
