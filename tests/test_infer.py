import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    clause_outputs,
    forward_closure,
    reference_backward,
    reference_softor2,
    reference_infer,
)
from softlog.grounding import context_from_atoms, convert_background
from softlog.infer import (
    MULTI,
    PAIR,
    WeightSet,
    backward,
    infer,
    softmax,
    softor,
)
from softlog.logic import Atom, Clause, Const, FALSE, Func, TRUE, Var

x = Var("x")
GAMMA = 1e-5


def nat(n):
    t = Const("0")
    for _ in range(n):
        t = Func("s", (t,))
    return t


def e(n):
    return Atom("e", (nat(n),))


DOUBLE_STEP = Clause(Atom("e", (Func("s", (Func("s", (x,)),)),)), (Atom("e", (x,)),))
FACT = Clause(Atom("e", (x,)))
ATOMS6 = [FALSE, TRUE, e(0), e(1), e(2), e(4)]


@pytest.fixture
def ctx6():
    return context_from_atoms([FACT, DOUBLE_STEP], ATOMS6)


class TestGather:
    def test_worked_rows(self, ctx6):
        a = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
        out = a[ctx6.x[1]]
        assert out.ravel().tolist() == [0.0, 1.0, 0.0, 0.0, 1.0, 1.0]

    def test_all_true_column(self, ctx6):
        a = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 0.125])
        col = np.full((6, 1), 1, dtype=np.int64)
        assert a[col].ravel().tolist() == [0.25] * 6

    def test_gradient_is_indicator_scatter(self):
        rng = np.random.default_rng(0)
        a = rng.random(8)
        b = rng.integers(0, 8, size=(5, 2))
        g_out = rng.random((5, 2))
        # analytic scatter
        g = np.zeros_like(a)
        np.add.at(g, b.ravel(), g_out.ravel())
        # finite differences
        h = 1e-6
        g_num = np.zeros_like(a)
        for i in range(len(a)):
            ap, am = a.copy(), a.copy()
            ap[i] += h
            am[i] -= h
            g_num[i] = ((ap[b] * g_out).sum() - (am[b] * g_out).sum()) / (2 * h)
        assert np.allclose(g, g_num, atol=1e-6)


class TestClauseFn:
    def test_worked_step_clause(self, ctx6):
        v = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        out = clause_outputs(ctx6.x, v)[1]
        assert out.tolist() == [0.0, 1.0, 0.0, 0.0, 1.0, 0.0]

    def test_fact_clause_fires_everywhere_it_unifies(self, ctx6):
        v = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        out = clause_outputs(ctx6.x, v)[0]
        assert out.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0, 1.0]

    def test_false_entry_stays_at_input(self, ctx6):
        v = np.array([0.0, 1.0, 0.5, 0.5, 0.5, 0.5])
        for i in range(2):
            assert clause_outputs(ctx6.x, v)[i][0] == 0.0


class TestWeightedSum:
    def test_one_hot_limit(self, ctx6):
        v = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        cm = clause_outputs(ctx6.x, v)
        w = WeightSet.one_hot([1], 2)
        h = w.distribution()[0] @ cm
        assert np.allclose(h, cm[1], atol=1e-12)

    def test_uniform_mixture(self, ctx6):
        v = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        cm = clause_outputs(ctx6.x, v)
        h = np.array([0.5, 0.5]) @ cm
        assert np.allclose(h, cm.mean(axis=0))

    def test_softmax_normalizes(self):
        w = np.random.default_rng(1).normal(size=(4, 9))
        assert np.allclose(softmax(w, axis=1).sum(axis=1), 1.0)


class TestSoftor:
    def test_two_zeros(self):
        got = softor(np.zeros((2, 1)), GAMMA, axis=0)[0]
        assert got == pytest.approx(GAMMA * np.log(2), rel=1e-9)

    def test_one_and_zero(self):
        got = softor(np.array([[1.0], [0.0]]), GAMMA, axis=0)[0]
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_single_argument_identity_exact(self):
        vals = np.array([[0.0, 0.3, 1.0, 0.73]])
        assert (softor(vals, GAMMA, axis=0) == vals[0]).all()

    def test_dominates_max(self):
        rng = np.random.default_rng(2)
        xs = rng.random((5, 20)) * 2
        assert (softor(xs, GAMMA, axis=0) >= xs.max(axis=0) - 1e-15).all()

    def test_no_overflow_at_tiny_gamma(self):
        xs = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        out = softor(xs, 1e-6, axis=0)
        assert np.isfinite(out).all()

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            softor(np.zeros((2, 2)), 0.0)

    @pytest.mark.parametrize("mode", [MULTI, PAIR])
    def test_infer_rejects_bad_gamma(self, ctx6, mode):
        w = WeightSet.random(2, 2, seed=0, mode=mode)
        v0 = convert_background([e(0)], ATOMS6)
        with pytest.raises(ValueError, match="gamma"):
            infer(ctx6.x, v0, w, 2, gamma=0.0)


class TestStep:
    def test_worked_one_hot_rollout(self, ctx6):
        v0 = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        w = WeightSet.one_hot([1], 2)
        v1 = infer(ctx6.x, v0, w, 1, GAMMA)
        v2 = infer(ctx6.x, v0, w, 2, GAMMA)
        assert np.allclose(v1, [0, 1, 1, 0, 1, 0], atol=1e-4)
        assert np.allclose(v2, [0, 1, 1, 0, 1, 1], atol=1e-4)

    def test_monotone_in_time(self, ctx6):
        rng = np.random.default_rng(3)
        w = WeightSet.random(2, 2, seed=5)
        v = convert_background([e(0)], ATOMS6)
        for _ in range(6):
            nxt = infer(ctx6.x, v, w, 1, GAMMA)
            assert (nxt >= v - 1e-9).all()
            v = nxt

    def test_inert_program_drifts_at_most_gamma_log2(self, ctx6):
        # all mass on the step clause, but nothing derivable from empty bg
        v0 = convert_background([], ATOMS6)
        w = WeightSet.one_hot([1], 2)
        v1 = infer(ctx6.x, v0, w, 1, GAMMA)
        assert (np.abs(v1 - v0) <= GAMMA * np.log(2) + 1e-12).all()

    def test_zero_steps_identity(self, ctx6):
        v0 = convert_background([e(0)], ATOMS6)
        w = WeightSet.random(2, 2, seed=1)
        assert (infer(ctx6.x, v0, w, 0, GAMMA) == v0).all()

    def test_bounded_overshoot(self, ctx6):
        m = 3
        w = WeightSet.random(m, 2, seed=9)
        v0 = convert_background([e(0)], ATOMS6)
        for t in range(1, 9):
            v = infer(ctx6.x, v0, w, t, GAMMA)
            assert (v <= 1 + t * GAMMA * np.log(m + 1) + 1e-12).all()

    def test_stability_extreme_weights(self, ctx6):
        w = WeightSet(MULTI, np.array([[50.0, -50.0], [-50.0, 50.0]]))
        v0 = convert_background([e(0)], ATOMS6)
        for gamma in (1e-6, 1e-3, 1.0):
            v = infer(ctx6.x, v0, w, 8, gamma)
            assert np.isfinite(v).all()

    def test_false_entry_stays_near_zero(self, ctx6):
        w = WeightSet.random(3, 2, seed=4)
        v0 = convert_background([e(0)], ATOMS6)
        v = infer(ctx6.x, v0, w, 8, GAMMA)
        assert v[0] <= 8 * GAMMA * np.log(4) + 1e-12

    def test_clamp_flag(self, ctx6):
        w = WeightSet.one_hot([0], 2)
        v0 = convert_background([e(0)], ATOMS6)
        v = infer(ctx6.x, v0, w, 4, GAMMA, clamp=True)
        assert (v <= 1.0).all()


class TestOneHotEquivalence:
    def test_rounding_matches_forward_closure(self, ctx6):
        for t in (1, 2, 3):
            v0 = convert_background([e(0)], ATOMS6)
            w = WeightSet.one_hot([1], 2)
            v = infer(ctx6.x, v0, w, t, 1e-3)
            closure = forward_closure([DOUBLE_STEP], [e(0)], ATOMS6, t)
            got = {a for a, val in zip(ATOMS6, v) if val >= 0.5}
            assert got == closure

    def test_plus_style_horizon(self):
        atoms = [FALSE, TRUE] + [e(n) for n in range(0, 7)]
        ctx = context_from_atoms([DOUBLE_STEP], atoms)
        v0 = convert_background([e(0)], atoms)
        w = WeightSet.one_hot([0], 1)
        v2 = infer(ctx.x, v0, w, 2, GAMMA)
        v3 = infer(ctx.x, v0, w, 3, GAMMA)
        i4, i6 = atoms.index(e(4)), atoms.index(e(6))
        assert v2[i4] > 0.5 and v2[i6] < 0.5
        assert v3[i6] > 0.5


class TestBackward:
    def _finite_diff(self, mode, seed, clamp=False, m=3, T=3, gamma=0.1, h=1e-4):
        rng = np.random.default_rng(seed)
        n_clauses = int(rng.integers(2, 7))
        n_atoms = int(rng.integers(6, 41))
        b = int(rng.integers(1, 3))
        xt = rng.integers(0, n_atoms, size=(n_clauses, n_atoms, b))
        xt[:, 0, :] = 0
        xt[:, 1, :] = 1
        v0 = rng.random(n_atoms)
        v0[0], v0[1] = 0.0, 1.0
        w = WeightSet.random(min(m, 3), n_clauses, seed=seed, mode=mode)
        w.w *= 10
        grad_out = rng.random(n_atoms)
        _, tape = infer(xt, v0, w, T, gamma, clamp=clamp, record=True)
        g = backward(tape, grad_out)
        g_num = np.zeros_like(w.w)
        it = np.nditer(w.w, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            for sign in (1, -1):
                w2 = WeightSet(mode, w.w.copy())
                w2.w[i] += sign * h
                val = float(np.dot(grad_out, infer(xt, v0, w2, T, gamma, clamp=clamp)))
                g_num[i] += sign * val / (2 * h)
        mask = np.abs(g) > 1e-8
        if not mask.any():
            return 0.0
        return float(
            (np.abs(g - g_num)[mask] / np.maximum(np.abs(g_num)[mask], 1e-12)).max()
        )

    @pytest.mark.parametrize("mode", [MULTI, PAIR])
    def test_matches_central_differences(self, mode):
        worst = max(self._finite_diff(mode, seed) for seed in range(5))
        assert worst < 1e-4

    @pytest.mark.parametrize("mode", [MULTI, PAIR])
    def test_clamped_matches_central_differences(self, mode):
        worst = max(self._finite_diff(mode, seed, clamp=True) for seed in range(5))
        assert worst < 1e-4

    def test_unused_clause_gradient_vanishes(self, ctx6):
        # huge negative logit: softmax mass below 1e-12, output support empty
        w = WeightSet(MULTI, np.array([[200.0, -200.0]]))
        v0 = convert_background([e(0)], ATOMS6)
        _, tape = infer(ctx6.x, v0, w, 3, GAMMA, record=True)
        g = backward(tape, np.ones(6))
        assert abs(g[0, 1]) < 1e-10

    def test_softmax_jacobian_rows_sum_to_zero(self):
        rng = np.random.default_rng(11)
        xt = rng.integers(0, 10, size=(4, 10, 1))
        xt[:, 0, :] = 0
        xt[:, 1, :] = 1
        v0 = rng.random(10)
        v0[0], v0[1] = 0.0, 1.0
        w = WeightSet.random(2, 4, seed=3)
        _, tape = infer(xt, v0, w, 2, 0.1, record=True)
        g = backward(tape, rng.random(10))
        assert np.allclose(g.sum(axis=1), 0.0, atol=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from([MULTI, PAIR]),
    clamp=st.booleans(),
    gamma=st.sampled_from([1e-5, 1e-2, 1.0]),
    steps=st.integers(1, 6),
    n_clauses=st.integers(1, 6),
    n_atoms=st.integers(3, 30),
    body=st.integers(1, 3),
    scale=st.sampled_from([0.1, 1.0, 10.0]),
    binary=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_softor_step_matches_nested_softors(
    mode, clamp, gamma, steps, n_clauses, n_atoms, body, scale, binary, seed
):
    """softor(v, softor_l(h_l)) = softor(v, h_1, ..., h_m), so the flat step
    equals the nested one in real arithmetic and v_T and the gradient agree
    to rounding.

    A gradient entry that is zero or tiny in real arithmetic is the
    difference of terms as large as the upstream gradient (the softmax
    projection subtracts <u, p> from u), and comes out as a different
    rounding residue on each side: atol is 1e-12 of the larger of max|g| and
    max|grad_out|.  Unclamped valuations that pass 2 (gamma = 1 adds up to
    log(m + 1) per step and 3-atom bodies cube it, reaching 1e90 by T = 6)
    put every gradient term out of scale, so those draws are not compared.
    """
    rng = np.random.default_rng(seed)
    xt = rng.integers(0, n_atoms, size=(n_clauses, n_atoms, body))
    xt[:, 0, :] = 0
    xt[:, 1, :] = 1
    v0 = (rng.random(n_atoms) < 0.5).astype(float) if binary else rng.random(n_atoms)
    v0[0], v0[1] = 0.0, 1.0
    w = WeightSet.random(3, n_clauses, seed=seed, mode=mode, scale=scale)
    grad_out = rng.standard_normal(n_atoms)

    v_ref, tape_ref = reference_infer(xt, v0, w, steps, gamma, clamp=clamp, record=True)
    assume(v_ref.max() <= 2.0)
    v, tape = infer(xt, v0, w, steps, gamma, clamp=clamp, record=True)
    assert np.allclose(v, v_ref, rtol=1e-12, atol=0)
    g, g_ref = backward(tape, grad_out), reference_backward(tape_ref, grad_out)
    atol = 1e-12 * max(np.abs(g_ref).max(), np.abs(grad_out).max())
    assert np.allclose(g, g_ref, rtol=1e-12, atol=atol)


class TestWeightSet:
    def test_param_counts(self):
        assert WeightSet.random(2, 12, seed=0).param_count == 24
        assert WeightSet.random(2, 12, seed=0, mode=PAIR).param_count == 144

    def test_distribution_shapes(self):
        multi = WeightSet.random(3, 5, seed=0)
        assert multi.distribution().shape == (3, 5)
        pair = WeightSet.random(3, 5, seed=0, mode=PAIR)
        d = pair.distribution()
        assert d.shape == (5, 5) and d.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "mode, shape, message",
        [("Multi", (2, 3), "weight mode must be 'multi' or 'pair'"),
         ("multi", (3,), "weights must be a matrix"),
         ("pair", (3, 3, 1), "weights must be a matrix"),
         ("pair", (2, 3), "pair weights must be square")],
    )
    def test_malformed_weights_refused(self, mode, shape, message):
        with pytest.raises(ValueError, match=message):
            WeightSet(mode, np.zeros(shape))

    def test_pair_mode_runs_and_differs(self, ctx6):
        v0 = convert_background([e(0)], ATOMS6)
        w = WeightSet.one_hot([(0, 1)], 2, mode=PAIR)
        v = infer(ctx6.x, v0, w, 2, GAMMA)
        # pair (fact, step) behaves like the union program
        assert v[2] > 0.5 and v[4] > 0.5


class TestWidths:
    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("mode", [MULTI, PAIR])
    def test_full_widths_equal_no_widths(self, mode, clamp):
        rng = np.random.default_rng(3)
        xt = rng.integers(0, 40, size=(5, 40, 2))
        v0 = rng.random(40)
        w = WeightSet.random(2, 5, seed=3, mode=mode, scale=1.0)
        grad_out = rng.random(40)
        v, tape = infer(xt, v0, w, 3, 1e-2, clamp=clamp, record=True)
        v_w, tape_w = infer(xt, v0, w, 3, 1e-2, clamp=clamp, record=True, widths=[40] * 3)
        assert np.array_equal(v_w, v)
        assert np.array_equal(backward(tape_w, grad_out), backward(tape, grad_out))

    def test_one_width_per_step(self, ctx6):
        v0 = convert_background([e(0)], ATOMS6)
        w = WeightSet.random(1, 2, seed=0)
        with pytest.raises(ValueError, match="one width per step"):
            infer(ctx6.x, v0, w, 3, GAMMA, widths=[6, 6])


@pytest.mark.parametrize("shift", range(1, 9))
def test_pair_valuations_ignore_column_position(shift):
    """Prepending atoms moves every original atom ``shift`` columns along the
    tensor.  Its subgoals move with it, so its pair-mode valuation must stay
    the same to the last bit: a sum over clause pairs that BLAS groups by
    column position would round differently."""
    rng = np.random.default_rng(shift)
    n_clauses, n_atoms, steps = 30, 200, 3
    xt = rng.integers(0, n_atoms, size=(n_clauses, n_atoms, 2))
    v0 = rng.random(n_atoms)
    w = WeightSet.random(1, n_clauses, seed=shift, mode=PAIR, scale=1.0)
    v = infer(xt, v0, w, steps, 1e-2)

    extra = rng.integers(0, n_atoms + shift, size=(n_clauses, shift, 2))
    shifted = np.concatenate((extra, xt + shift), axis=1)
    v0_shifted = np.concatenate((rng.random(shift), v0))
    v_shifted = infer(shifted, v0_shifted, w, steps, 1e-2)
    assert np.array_equal(v_shifted[shift:], v)


@pytest.mark.parametrize("gamma", [1e-5, 1e-2, 1.0])
@pytest.mark.parametrize("body", [1, 2, 3])
def test_pair_softor_equals_two_operand_softor(body, gamma):
    """Pair mode takes each clause pair's smooth-or as the n-row smooth-or of
    the two operands stacked; on two rows that does the same float
    operations as the two-operand form, so it must agree to the last bit
    (ties included: 0/1 valuations make many equal clause outputs)."""
    rng = np.random.default_rng(body)
    xt = rng.integers(0, 50, size=(6, 50, body))
    v0 = rng.random(50)
    v0[rng.random(50) < 0.3] = 0.0
    v0[rng.random(50) < 0.3] = 1.0
    w = WeightSet.random(1, 6, seed=body, mode=PAIR, scale=1.0)
    _, tape = infer(xt, v0, w, 1, gamma, record=True)
    gv = v0[xt]
    cm = gv[..., 0]
    for k in range(1, body):
        cm = cm * gv[..., k]
    want = reference_softor2(cm[:, None, :], cm[None, :, :], gamma)
    for got, ref in zip(tape.steps[0][2], want):
        assert np.array_equal(got, ref)
