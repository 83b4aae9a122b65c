import random

import pytest

from softlog.logic import (
    Atom,
    Clause,
    Const,
    Language,
    Var,
    canonical,
    nest_depth,
)
from softlog.parser import parse_clause
from softlog.refine import (
    RefinementConfig,
    refine,
    rho_add,
    rho_fun,
    rho_rep,
    rho_sub,
)
from conftest import refinement_bound, subsumes

x, y, z = Var("x"), Var("y"), Var("z")


def canon_set(clauses):
    return {canonical(c) for c in clauses}


@pytest.fixture
def ex_lang():
    # p/2, q/2, f/1, constants a,b, three variables
    return Language(
        predicates=[("p", 2), ("q", 2)],
        functions=[("f", 1)],
        constants=["a", "b"],
        variables=["x", "y", "z"],
    )


class TestRhoFun:
    def test_unary_function_both_positions(self, ex_lang):
        out = rho_fun(Clause(Atom("p", (x, y))), ex_lang)
        expect = {
            canonical(parse_clause("p(f(z),y)", ex_lang)),
            canonical(parse_clause("p(x,f(z))", ex_lang)),
        }
        assert canon_set(out) == expect

    def test_no_function_symbols(self):
        lang = Language(predicates=[("p", 2)], constants=["a"], variables=["x", "y"])
        assert rho_fun(Clause(Atom("p", (x, y))), lang) == []

    def test_fresh_vars_from_pool_order(self):
        # brute force: fresh variable is the first unused pool name
        lang = Language(
            predicates=[("plus", 3)],
            functions=[("s", 1)],
            constants=["0"],
            variables=["x", "y", "z", "v", "w"],
        )
        c = parse_clause("plus(x,y,z)", lang)
        out = rho_fun(c, lang)
        assert parse_clause("plus(x,y,s(v))", lang) in out
        assert len(out) == 3  # one per substituted variable

    def test_pool_exhaustion_yields_nothing(self):
        lang = Language(
            predicates=[("p", 3)],
            functions=[("g", 2)],
            constants=[],
            variables=["x", "y", "z", "v"],
        )
        c = parse_clause("p(x,y,z)", lang)  # only v free, g needs two
        assert rho_fun(c, lang) == []


class TestRhoSub:
    def test_all_pairs(self, ex_lang):
        out = rho_sub(Clause(Atom("p", (x, y))), ex_lang)
        expect = {
            canonical(parse_clause(t, ex_lang))
            for t in ("p(a,y)", "p(x,a)", "p(b,y)", "p(x,b)")
        }
        assert canon_set(out) == expect

    def test_ground_clause(self, ex_lang):
        assert rho_sub(parse_clause("p(a,b)", ex_lang), ex_lang) == []

    def test_single_choice(self):
        lang = Language(
            predicates=[("e", 1)], functions=[("s", 1)], constants=["0"],
            variables=["x", "y"],
        )
        out = rho_sub(parse_clause("e(x)", lang), lang)
        assert canon_set(out) == {canonical(parse_clause("e(0)", lang))}


class TestRhoRep:
    def test_two_vars_single_result(self, ex_lang):
        out = rho_rep(Clause(Atom("p", (x, y))), ex_lang)
        assert canon_set(out) == {canonical(parse_clause("p(x,x)", ex_lang))}

    def test_single_var(self, ex_lang):
        assert rho_rep(Clause(Atom("p", (x, x))), ex_lang) == []

    def test_three_vars_dedup(self):
        # brute-force pairs then canonical dedup gives three classes
        lang = Language(predicates=[("p", 3)], constants=[], variables=["x", "y", "z"])
        out = rho_rep(parse_clause("p(x,y,z)", lang), lang)
        expect = {
            canonical(parse_clause(t, lang))
            for t in ("p(x,x,z)", "p(x,y,x)", "p(x,y,y)")
        }
        assert canon_set(out) == expect


class TestRhoAdd:
    def test_both_orders_generated(self, ex_lang):
        out = rho_add(Clause(Atom("p", (x, y))), ex_lang)
        assert canonical(parse_clause("p(x,y) :- q(x,y)", ex_lang)) in canon_set(out)
        assert canonical(parse_clause("p(x,y) :- q(y,x)", ex_lang)) in canon_set(out)

    def test_ground_head_nothing(self, ex_lang):
        assert rho_add(parse_clause("p(a,b)", ex_lang), ex_lang) == []

    @staticmethod
    def bodies(head_args, predicate):
        lang = Language(predicates=[predicate], variables=["x", "y", "z"])
        return [c.body for c in rho_add(Clause(Atom("p", head_args)), lang)]

    def test_ordered_pairs_of_distinct_variables(self):
        assert self.bodies((x, y), ("q", 2)) == [
            (Atom("q", (x, y)),), (Atom("q", (y, x)),)
        ]

    def test_repeated_variable_counts_once(self):
        assert self.bodies((x, x), ("r", 1)) == [(Atom("r", (x,)),)]

    def test_too_few_variables_for_the_arity(self):
        assert self.bodies((x, y), ("t", 3)) == []

    def test_zero_ary_predicate_adds_one_atom(self):
        assert self.bodies((x, y), ("w", 0)) == [(Atom("w", ()),)]
        assert self.bodies((Const("a"),), ("w", 0)) == [(Atom("w", ()),)]


class TestRefine:
    def test_worked_eight_clause_example(self, ex_lang):
        out = refine(Clause(Atom("p", (x, y))), ex_lang)
        got = canon_set(out)
        for text in (
            "p(a,y)", "p(x,a)", "p(b,y)", "p(x,b)", "p(x,x)",
            "p(f(z),y)", "p(x,f(z))", "p(x,y) :- q(x,y)",
        ):
            assert canonical(parse_clause(text, ex_lang)) in got

    def test_never_contains_self_or_duplicates(self, ex_lang):
        c = Clause(Atom("p", (x, y)))
        out = refine(c, ex_lang)
        assert canonical(c) not in canon_set(out)
        assert len(out) == len(canon_set(out))

    def test_body_length_filter(self, ex_lang):
        c = parse_clause("p(x,y) :- q(x,y)", ex_lang)
        out = refine(c, ex_lang, RefinementConfig(n_body=1, n_nest=1))
        assert all(len(r.body) <= 1 for r in out)
        # nothing with two body atoms; rho_add output was filtered entirely
        out2 = refine(c, ex_lang, RefinementConfig(n_body=2, n_nest=1))
        assert any(len(r.body) == 2 for r in out2)

    def test_nest_filter_step_relative(self):
        lang = Language(
            predicates=[("e", 1)], functions=[("s", 1)], constants=["0"],
            variables=["x", "y", "z", "v", "w"],
        )
        deep = parse_clause("e(s(s(x))) :- e(x)", lang)
        out = refine(deep, lang, RefinementConfig(n_body=1, n_nest=1))
        # the inherited depth-2 head does not empty the result
        assert out
        assert all(nest_depth(r) <= nest_depth(deep) + 1 for r in out)
        # from a flat clause the cap is absolute
        flat = parse_clause("e(x)", lang)
        for r in refine(flat, lang, RefinementConfig(n_body=1, n_nest=1)):
            assert nest_depth(r) <= 1

    def test_all_refinements_subsumed_by_parent(self, ex_lang):
        rng = random.Random(5)
        frontier = [Clause(Atom("p", (x, y)))]
        for _ in range(60):
            c = rng.choice(frontier)
            rs = refine(c, ex_lang)
            if not rs:
                continue
            r = rng.choice(rs)
            assert subsumes(c, r), f"{c!r} should subsume {r!r}"
            frontier.append(r)

    def test_size_bound(self, ex_lang):
        c = Clause(Atom("p", (x, y)))
        assert len(refine(c, ex_lang)) <= refinement_bound(c, ex_lang)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RefinementConfig(n_body=-1)
