import re

import pytest

from conftest import eval_clause, forward_closure
from softlog.grounding import build_index_tensor
from softlog.logic import (
    Atom,
    Clause,
    Const,
    FALSE,
    Func,
    ILPProblem,
    Language,
    TRUE,
    Var,
)
from softlog.parser import parse_atom, parse_clause
from softlog.prover import MAX_HORIZON, ProofConfig, entails, eval_counts

x, y = Var("x"), Var("y")
a, b, c = Const("a"), Const("b"), Const("c")


def nat(n):
    t = Const("0")
    for _ in range(n):
        t = Func("s", (t,))
    return t


def e(n):
    return Atom("e", (nat(n),))


DOUBLE_STEP = Clause(Atom("e", (Func("s", (Func("s", (x,)),)),)), (Atom("e", (x,)),))


class TestEntails:
    def test_direct_fact_pattern(self):
        assert entails([Clause(Atom("p", (x, x)))], [], Atom("p", (a, a)), ProofConfig(1))

    def test_one_step_rule(self):
        rule = Clause(Atom("p", (x, y)), (Atom("q", (x, y)),))
        assert entails([rule], [Atom("q", (b, c))], Atom("p", (b, c)), ProofConfig(2))
        assert not entails([rule], [Atom("q", (b, c))], Atom("p", (c, b)), ProofConfig(2))

    def test_even_chain_parity(self):
        # exhaustive forward chaining over the reachable set never yields e(s(0))
        assert not entails([DOUBLE_STEP], [e(0)], e(1), ProofConfig(8))
        assert entails([DOUBLE_STEP], [e(0)], e(6), ProofConfig(8))

    def test_depth_bound_is_height(self):
        # e(2k) has proof height exactly k
        assert entails([DOUBLE_STEP], [e(0)], e(4), ProofConfig(2))
        assert not entails([DOUBLE_STEP], [e(0)], e(6), ProofConfig(2))

    def test_monotone_in_depth(self):
        for d in range(1, 6):
            if entails([DOUBLE_STEP], [e(0)], e(6), ProofConfig(d)):
                assert entails([DOUBLE_STEP], [e(0)], e(6), ProofConfig(d + 1))

    def test_self_loop_terminates(self):
        loop = Clause(Atom("p", (x,)), (Atom("p", (x,)),))
        assert not entails([loop], [], Atom("p", (a,)), ProofConfig(30))

    def test_self_loop_at_horizon_limit(self):
        # the member beam scores mem(x,y) :- mem(x,y); at the deepest proof a
        # config accepts, the prover's recursion stays below Python's limit
        loop = Clause(Atom("mem", (x, y)), (Atom("mem", (x, y)),))
        assert not entails([loop], [], Atom("mem", (a, b)), ProofConfig(MAX_HORIZON))
        for depth in (0, -1, MAX_HORIZON + 1):
            refused = re.escape(
                f"ProofConfig.max_depth must be in [1, {MAX_HORIZON}], got {depth}")
            with pytest.raises(ValueError, match=refused):
                ProofConfig(depth)

    def test_depth_that_is_no_int_refused(self):
        for depth in (True, 2.5):
            message = f"^ProofConfig.max_depth must be int, got {depth}$"
            with pytest.raises(ValueError, match=message):
                ProofConfig(depth)

    def test_nonground_goal_rejected(self):
        with pytest.raises(ValueError):
            entails([], [], Atom("p", (x,)), ProofConfig(1))

    def test_nonground_subgoal_handled(self):
        # body variable y not bound by the head: every engine rejects the clause
        rule = Clause(Atom("p", (x,)), (Atom("q", (x, y)),))
        bg = (Atom("q", (a, b)),)
        problem = ILPProblem(
            pos=(Atom("p", (a,)),), neg=(Atom("p", (b,)),), background=bg,
            language=Language([("p", 1), ("q", 2)], constants=["a", "b"]),
        )
        universe = [FALSE, TRUE, Atom("p", (a,)), Atom("p", (b,)), *bg]
        calls = (
            lambda: entails([rule], bg, Atom("p", (a,)), ProofConfig(2)),
            lambda: eval_counts(rule, problem, ProofConfig(2)),
            lambda: build_index_tensor([rule], universe),
            lambda: forward_closure([rule], bg, universe, 2),
        )
        for call in calls:
            with pytest.raises(ValueError, match="variable y occurs in the body"):
                call()

    def test_background_only(self):
        assert entails([], [Atom("p", (a, b))], Atom("p", (a, b)), ProofConfig(1))
        assert not entails([], [Atom("p", (a, b))], Atom("p", (b, a)), ProofConfig(1))


@pytest.fixture
def worked_problem(pq_lang):
    def A(t):
        return parse_atom(t, pq_lang)

    return ILPProblem(
        pos=(A("p(a,a)"), A("p(b,b)"), A("p(b,c)"), A("p(c,b)")),
        neg=(A("p(a,b)"), A("p(b,a)")),
        background=(A("q(b,c)"), A("q(c,b)")),
        language=pq_lang,
        initial_clauses=(parse_clause("p(x,y)", pq_lang),),
    )


class TestEvalClause:
    def test_identity_head(self, pq_lang, worked_problem):
        got = eval_clause(parse_clause("p(x,x)", pq_lang), worked_problem, ProofConfig(2))
        assert got == 2  # p(a,a), p(b,b)

    def test_function_head_scores_zero(self, pq_lang, worked_problem):
        got = eval_clause(
            parse_clause("p(f(x),y)", pq_lang), worked_problem, ProofConfig(2)
        )
        assert got == 0

    def test_most_general_head(self, pq_lang, worked_problem):
        got = eval_clause(parse_clause("p(x,y)", pq_lang), worked_problem, ProofConfig(2))
        assert got == len(worked_problem.pos)

    def test_body_clause_uses_background(self, pq_lang, worked_problem):
        pos, neg = eval_counts(
            parse_clause("p(x,y) :- q(x,y)", pq_lang), worked_problem, ProofConfig(2)
        )
        assert (pos, neg) == ((2, 3), ())  # p(b,c), p(c,b)

    def test_bounds(self, pq_lang, worked_problem):
        for text in ("p(x,y)", "p(a,b)", "p(x,x)"):
            v = eval_clause(parse_clause(text, pq_lang), worked_problem, ProofConfig(2))
            assert 0 <= v <= len(worked_problem.pos)


class TestForwardClosure:
    def test_worked_two_step(self):
        universe = [FALSE, TRUE, e(0), e(1), e(2), e(4), e(6)]
        got = forward_closure([DOUBLE_STEP], [e(0)], universe, 2)
        assert got == {TRUE, e(0), e(2), e(4)}

    def test_empty_program(self):
        universe = [FALSE, TRUE, e(0), e(1)]
        assert forward_closure([], [e(0)], universe, 3) == {TRUE, e(0)}

    def test_zero_steps(self):
        universe = [FALSE, TRUE, e(0), e(2)]
        assert forward_closure([DOUBLE_STEP], [e(0)], universe, 0) == {TRUE, e(0)}

    def test_agreement_with_entails(self):
        # provable within depth T == membership in the T-step closure,
        # whenever proofs stay inside the universe (all even atoms present)
        universe = [FALSE, TRUE] + [e(n) for n in range(0, 13)]
        for t in range(1, 7):
            closure = forward_closure([DOUBLE_STEP], [e(0)], universe, t)
            for n in range(0, 13):
                assert entails([DOUBLE_STEP], [e(0)], e(n), ProofConfig(t)) == (
                    e(n) in closure
                )

    def test_monotone_in_steps(self):
        universe = [FALSE, TRUE] + [e(n) for n in range(0, 13)]
        prev = set()
        for t in range(0, 8):
            cur = forward_closure([DOUBLE_STEP], [e(0)], universe, t)
            assert prev <= cur
            prev = cur
