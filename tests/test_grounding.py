import pytest

from conftest import forward_closure
from softlog import grounding
from softlog.grounding import (
    FALSE_INDEX,
    TRUE_INDEX,
    build_index_tensor,
    context_from_atoms,
    convert_background,
    enumerate_atoms,
    ground_context,
)
from softlog.infer import WeightSet, infer
from softlog.logic import Atom, Clause, Const, FALSE, Func, TRUE, Var, unify
from softlog.parser import ParseError, parse_atom, parse_clause
from softlog.problem import ILPProblem
from softlog.prover import ProofConfig, eval_counts

x = Var("x")


def nat(n):
    t = Const("0")
    for _ in range(n):
        t = Func("s", (t,))
    return t


def e(n):
    return Atom("e", (nat(n),))


DOUBLE_STEP = Clause(Atom("e", (Func("s", (Func("s", (x,)),)),)), (Atom("e", (x,)),))
FACT = Clause(Atom("e", (x,)))


@pytest.fixture
def even_problem(nat_lang):
    return ILPProblem(
        pos=(e(6),), neg=(e(1),), background=(e(0),),
        language=nat_lang, initial_clauses=(),
    )


class TestEnumerateAtoms:
    def test_worked_two_step_set(self, even_problem):
        got = enumerate_atoms(even_problem, [DOUBLE_STEP], steps=2)
        assert set(got) == {FALSE, TRUE, e(0), e(1), e(2), e(4), e(6)}
        assert e(3) not in set(got) and e(5) not in set(got)

    def test_special_atoms_lead(self, even_problem):
        got = enumerate_atoms(even_problem, [DOUBLE_STEP], steps=2)
        assert got[0] == FALSE and got[1] == TRUE

    def test_facts_only_no_growth(self, even_problem):
        got = enumerate_atoms(even_problem, [FACT], steps=3)
        assert set(got) == {FALSE, TRUE, e(0), e(1), e(6)}

    def test_monotone_in_steps(self, even_problem):
        prev = set()
        for t in range(1, 5):
            cur = set(enumerate_atoms(even_problem, [DOUBLE_STEP], steps=t))
            assert prev <= cur
            prev = cur

    def test_held_out_seeds(self, even_problem):
        # evaluation grounds the held-out atoms as the only examples; a seed's
        # valuation is the same as with the training examples also seeded
        held_out = even_problem.with_examples([e(4)], [e(3)])
        both = even_problem.with_examples([e(6), e(4)], [e(1), e(3)])
        got = ground_context(held_out, [DOUBLE_STEP], steps=2)
        assert {e(4), e(3), e(2), e(1)} <= set(got.atoms)
        assert e(6) not in got.index  # a training example, no longer a seed
        ref = ground_context(both, [DOUBLE_STEP], steps=2)

        def v_t(ctx):
            v0 = convert_background(even_problem.background, ctx.atoms)
            return infer(ctx.x, v0, WeightSet.one_hot([0], 1), 2)

        v_got, v_ref = v_t(got), v_t(ref)
        for a in (e(4), e(3)):
            assert v_got[got.index_of(a)] == v_ref[ref.index_of(a)]
        assert v_got[got.index_of(e(4))] > 0.5 > v_got[got.index_of(e(3))]

    def test_deterministic_order(self, even_problem):
        a = enumerate_atoms(even_problem, [DOUBLE_STEP], steps=3)
        b = enumerate_atoms(even_problem, [DOUBLE_STEP], steps=3)
        assert a == b

    def test_nonground_subgoals_rejected(self, nat_lang, even_problem):
        # body variable y never bound by matching the head: no engine takes it
        leaky = Clause(Atom("e", (x,)), (Atom("e", (Var("y"),)),))
        universe = [FALSE, TRUE, e(0), e(1), e(6)]
        calls = (
            lambda: enumerate_atoms(even_problem, [leaky], steps=2),
            lambda: build_index_tensor([leaky], universe),
            lambda: forward_closure([leaky], even_problem.background, universe, 2),
            lambda: eval_counts(leaky, even_problem, ProofConfig(2)),
        )
        for call in calls:
            with pytest.raises(ValueError, match="variable y occurs in the body"):
                call()
        with pytest.raises(ParseError, match="not range-restricted"):
            parse_clause("e(x) :- e(y)", nat_lang)


class TestIndexTensor:
    def test_worked_example_table(self):
        atoms = [FALSE, TRUE, e(0), e(1), e(2), e(4)]
        X = build_index_tensor([FACT, DOUBLE_STEP], atoms)
        assert X.shape == (2, 6, 1)
        assert X[0].ravel().tolist() == [0, 1, 1, 1, 1, 1]
        assert X[1].ravel().tolist() == [0, 1, 0, 0, 2, 4]

    def test_body_subgoal_index(self):
        # deriving e(s^2(0)) with the step clause needs e(0) at index 2
        atoms = [FALSE, TRUE, e(0), e(1), e(2), e(4)]
        X = build_index_tensor([FACT, DOUBLE_STEP], atoms)
        assert X[1, 4, 0] == 2

    def test_short_body_padded_with_true(self, pq_lang):
        c_fact = parse_clause("p(x,y)", pq_lang)
        c_rule = parse_clause("p(x,y) :- q(x,y), q(y,x)", pq_lang)
        atoms = [FALSE, TRUE, parse_atom("p(a,b)", pq_lang), parse_atom("q(a,b)", pq_lang),
                 parse_atom("q(b,a)", pq_lang)]
        X = build_index_tensor([c_fact, c_rule], atoms)
        assert X.shape[2] == 2
        assert X[0, 2].tolist() == [TRUE_INDEX, TRUE_INDEX]  # padding
        assert X[1, 2].tolist() == [3, 4]

    def test_subgoal_outside_universe_maps_to_false(self):
        atoms = [FALSE, TRUE, e(2)]  # e(0) missing
        X = build_index_tensor([DOUBLE_STEP], atoms)
        assert X[0, 2, 0] == FALSE_INDEX

    def test_entries_are_valid_indices(self, even_problem):
        ctx = ground_context(even_problem, [FACT, DOUBLE_STEP], steps=3)
        assert ctx.x.min() >= 0 and ctx.x.max() < len(ctx)

    def test_each_clause_meets_each_atom_once(self, even_problem, monkeypatch):
        calls = []
        monkeypatch.setattr(
            grounding, "unify", lambda h, g: calls.append((h, g)) or unify(h, g)
        )
        clauses = [FACT, DOUBLE_STEP]
        ctx = ground_context(even_problem, clauses, steps=3)
        assert sorted(map(repr, calls)) == sorted(
            repr((c.head, g)) for c in clauses for g in ctx.atoms[2:]
        )

    def test_cell_bound(self, even_problem, monkeypatch):
        clauses = [FACT, DOUBLE_STEP]
        full = ground_context(even_problem, clauses, steps=3)
        cells = full.x.size  # |C|·|G|·B = 2·|G|·1
        monkeypatch.setattr(grounding, "GROUND_CELLS", cells)
        assert ground_context(even_problem, clauses, steps=3).atoms == full.atoms
        monkeypatch.setattr(grounding, "GROUND_CELLS", cells - 1)
        with pytest.raises(ValueError) as err:
            ground_context(even_problem, clauses, steps=3)
        # refused at the last atom, before it is added
        msg = str(err.value)
        assert f"|C|=2, |G|={len(full) - 1} so far, B=1" in msg
        assert f"{cells - 1:,}" in msg

    def test_requires_special_prefix(self):
        with pytest.raises(ValueError):
            build_index_tensor([FACT], [e(0), FALSE, TRUE])


class TestConvertBackground:
    def test_worked_vector(self):
        atoms = [FALSE, TRUE, e(0), e(1), e(2), e(4)]
        v0 = convert_background([e(0)], atoms)
        assert v0.tolist() == [0.0, 1.0, 1.0, 0.0, 0.0, 0.0]

    def test_empty_background_one_hot_true(self):
        atoms = [FALSE, TRUE, e(0)]
        v0 = convert_background([], atoms)
        assert v0.tolist() == [0.0, 1.0, 0.0]

    def test_false_entry_always_zero(self, even_problem):
        ctx = ground_context(even_problem, [DOUBLE_STEP], steps=2)
        v0 = convert_background(even_problem.background, ctx.atoms)
        assert v0[FALSE_INDEX] == 0.0


class TestSufficiency:
    def test_closure_on_enumerated_set_matches_full_universe(self, even_problem):
        # enumeration harvests everything needed for the truncated closure
        clauses = [DOUBLE_STEP]
        for steps in (1, 2, 3):
            atoms = enumerate_atoms(even_problem, clauses, steps=steps)
            small = forward_closure(clauses, even_problem.background, atoms, steps)
            big_universe = [FALSE, TRUE] + [e(n) for n in range(16)]
            big = forward_closure(clauses, even_problem.background, big_universe, steps)
            seeds = set(even_problem.examples) | set(even_problem.background)
            # agreement on every seed-derivable atom
            assert {g for g in big if g in set(atoms)} == small - {TRUE} | (
                small & {TRUE}
            )
            for g in seeds:
                assert (g in small) == (g in big)
