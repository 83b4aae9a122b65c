import numpy as np
import pytest

from softlog.datasets import TaskSpec, generate, split
from softlog.grounding import convert_background, ground_context
from softlog.infer import MULTI, PAIR, WeightSet, infer
from softlog.logic import Atom, Clause, Const, Var
from softlog.parser import parse_atom
from softlog.problem import ILPProblem
from softlog.training import (
    TrainConfig,
    auc,
    cross_entropy,
    extract_program,
    make_labels,
    metrics,
    mse,
    predict,
    predictions,
    train,
)

x = Var("x")
a, b = Const("a"), Const("b")


class TestLabels:
    def test_pairs(self):
        lang_problem = _tiny_problem()
        labels = make_labels(lang_problem)
        assert (lang_problem.pos[0], 1) in labels
        assert (lang_problem.neg[0], 0) in labels
        assert len(labels) == len(lang_problem.pos) + len(lang_problem.neg)

    def test_noise_flips_exact_count(self):
        from softlog.datasets import inject_noise

        problem = generate(TaskSpec("member", n_per_class=20, seed=0))
        noisy = inject_noise(problem, 0.1, seed=1)
        moved = set(problem.pos) ^ set(noisy.pos)
        assert len(moved) == int(0.1 * 40)


def _tiny_problem():
    from softlog.logic import Language

    lang = Language(
        predicates=[("p", 2)], constants=["a", "b"], variables=["x", "y"]
    )
    return ILPProblem(
        pos=(Atom("p", (a, a)), Atom("p", (b, b))),
        neg=(Atom("p", (a, b)), Atom("p", (b, a))),
        background=(),
        language=lang,
        initial_clauses=(Clause(Atom("p", (Var("x"), Var("y")))),),
    )


class TestPredict:
    def test_background_predicts_one(self):
        problem = generate(TaskSpec("member", n_per_class=5, seed=0))
        clauses = list(problem.initial_clauses)
        ctx = ground_context(problem, clauses, steps=2)
        v0 = convert_background(problem.background, ctx.atoms)
        w = WeightSet.random(2, len(clauses), seed=0)
        got = predict(problem.background[0], ctx, v0, w, steps=2)
        assert got == pytest.approx(1.0, abs=1e-3)

    def test_false_atom_near_zero(self):
        problem = generate(TaskSpec("member", n_per_class=5, seed=0))
        clauses = list(problem.initial_clauses)
        ctx = ground_context(problem, clauses, steps=2)
        v0 = convert_background(problem.background, ctx.atoms)
        w = WeightSet.random(2, len(clauses), seed=0)
        assert infer(ctx.x, v0, w, 2)[0] < 1e-3

    def test_missing_atom_raises(self):
        problem = generate(TaskSpec("member", n_per_class=5, seed=0))
        clauses = list(problem.initial_clauses)
        ctx = ground_context(problem, clauses, steps=2)
        v0 = convert_background(problem.background, ctx.atoms)
        w = WeightSet.random(2, len(clauses), seed=0)
        stranger = parse_atom("mem(a,[a,b,c,a,b])", problem.language)
        if stranger not in ctx.index:
            with pytest.raises(KeyError):
                predict(stranger, ctx, v0, w, steps=2)

    def test_member_ground_truth_scores_high(self):
        problem = generate(TaskSpec("member", n_per_class=10, seed=3))
        from softlog.datasets import TASKS

        truth = list(TASKS["member"].ground_truth)
        ctx = ground_context(problem, truth, steps=4)
        v0 = convert_background(problem.background, ctx.atoms)
        w = WeightSet.one_hot(list(range(len(truth))), len(truth))
        scores = predictions(list(problem.pos), ctx, v0, w, steps=4)
        assert (scores >= 0.99).all()


class TestLoss:
    def test_perfect_prediction_zero(self):
        assert cross_entropy(np.array([1.0]), np.array([1.0])) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_half_is_log2(self):
        assert cross_entropy(np.array([0.5]), np.array([1.0])) == pytest.approx(
            np.log(2)
        )
        assert cross_entropy(np.array([0.5]), np.array([0.0])) == pytest.approx(
            np.log(2)
        )

    def test_gradient_step_decreases_loss(self):
        # statistical check: a small step along the negative gradient reduces
        # the batch loss on random instances
        from softlog.training import _loss_and_grad

        rng = np.random.default_rng(0)
        wins = 0
        for trial in range(20):
            n_c, n_a = 4, 14
            xt = rng.integers(0, n_a, size=(n_c, n_a, 1))
            xt[:, 0, :] = 0
            xt[:, 1, :] = 1
            v0 = (rng.random(n_a) > 0.6).astype(float)
            v0[0], v0[1] = 0.0, 1.0
            w = WeightSet.random(2, n_c, seed=trial)
            idx = rng.integers(2, n_a, size=6)
            y = rng.integers(0, 2, size=6).astype(float)
            cfg = TrainConfig(m=2, steps=2, gamma=0.1, seed=trial)
            loss0, grad = _loss_and_grad(
                type("C", (), {"x": xt})(), v0, w, idx, y, cfg
            )
            w2 = WeightSet(MULTI, w.w - 1e-3 * grad)
            loss1, _ = _loss_and_grad(
                type("C", (), {"x": xt})(), v0, w2, idx, y, cfg
            )
            wins += loss1 < loss0 + 1e-12
        assert wins >= 18


class TestTrain:
    def test_bit_identical_histories(self):
        problem = generate(TaskSpec("member", n_per_class=10, seed=0))
        train_p, _ = split(problem, 0.7, 0)
        clauses = list(problem.initial_clauses)
        ctx = ground_context(train_p, clauses, steps=2)
        cfg = TrainConfig(m=2, steps=2, epochs=40, seed=7)
        w1, h1 = train(train_p, clauses, ctx, cfg)
        w2, h2 = train(train_p, clauses, ctx, cfg)
        assert h1 == h2
        assert (w1.w == w2.w).all()

    def test_loss_decreases_on_clean_member(self):
        # loss at the end beats the start for most seeds (desk-scale check)
        from softlog.datasets import TASKS

        wins = 0
        for seed in range(5):
            problem = generate(TaskSpec("member", n_per_class=10, seed=seed))
            train_p, _ = split(problem, 0.7, seed)
            clauses = list(TASKS["member"].ground_truth) + list(
                problem.initial_clauses
            )
            ctx = ground_context(train_p, clauses, steps=4)
            cfg = TrainConfig(m=2, steps=4, epochs=150, seed=seed)
            _, hist = train(train_p, clauses, ctx, cfg)
            head = np.mean(hist[:10])
            tail = np.mean(hist[-10:])
            wins += tail < head
        assert wins >= 4

    def test_param_count_multi(self):
        problem = generate(TaskSpec("member", n_per_class=5, seed=0))
        clauses = list(problem.initial_clauses) * 3
        ctx = ground_context(problem, clauses, steps=2)
        cfg = TrainConfig(m=2, steps=2, epochs=1, seed=0)
        w, _ = train(problem, clauses, ctx, cfg)
        assert w.param_count == 2 * len(clauses)

    def test_pair_mode_param_count(self):
        problem = generate(TaskSpec("member", n_per_class=5, seed=0))
        clauses = list(problem.initial_clauses) * 3
        ctx = ground_context(problem, clauses, steps=2)
        cfg = TrainConfig(m=2, steps=2, epochs=1, seed=0, weight_mode=PAIR)
        w, _ = train(problem, clauses, ctx, cfg)
        assert w.param_count == len(clauses) ** 2

    def test_pair_tape_over_budget_refused(self, monkeypatch):
        from softlog import training

        problem = generate(TaskSpec("member", n_per_class=5, seed=0))
        clauses = list(problem.initial_clauses) * 3
        ctx = ground_context(problem, clauses, steps=2)
        floats = 3 * 2 * len(clauses) ** 2 * len(ctx)
        cfg = TrainConfig(m=2, steps=2, epochs=1, seed=0, weight_mode=PAIR)
        monkeypatch.setattr(training, "PAIR_TAPE_FLOATS", floats - 1)
        with pytest.raises(ValueError, match=f"{floats:,} floats"):
            train(problem, clauses, ctx, cfg)
        monkeypatch.setattr(training, "PAIR_TAPE_FLOATS", floats)
        w, _ = train(problem, clauses, ctx, cfg)
        assert w.param_count == len(clauses) ** 2


class TestExtraction:
    def test_argmax_per_slot(self):
        clauses = [Clause(Atom("p", (Var("x"), Var("y")))), Clause(Atom("p", (a, b)))]
        w = WeightSet(MULTI, np.array([[3.0, 0.0], [0.0, 2.0]]))
        prog = extract_program(w, clauses)
        assert list(prog) == clauses

    def test_duplicate_slots_merge(self):
        clauses = [Clause(Atom("p", (Var("x"), Var("y")))), Clause(Atom("p", (a, b)))]
        w = WeightSet(MULTI, np.array([[3.0, 0.0], [5.0, 0.0]]))
        prog = extract_program(w, clauses)
        assert len(prog.clauses) == 1
        assert 0 < prog.confidences[0] <= 1

    def test_shift_invariance(self):
        clauses = [Clause(Atom("p", (Var("x"), Var("y")))), Clause(Atom("p", (a, b)))]
        w = WeightSet(MULTI, np.array([[3.0, 0.0], [0.0, 2.0]]))
        shifted = WeightSet(MULTI, w.w + np.array([[17.0], [-4.0]]))
        assert list(extract_program(w, clauses)) == list(
            extract_program(shifted, clauses)
        )

    def test_pair_extraction(self):
        clauses = [Clause(Atom("p", (Var("x"), Var("y")))), Clause(Atom("p", (a, b)))]
        w = WeightSet.one_hot([(0, 1)], 2, mode=PAIR)
        prog = extract_program(w, clauses)
        assert set(prog.clauses) == set(clauses)


class TestMetrics:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_constant_predictor(self):
        assert auc([0.5] * 6, [1, 1, 1, 0, 0, 0]) == 0.5

    def test_exact_predictions_zero_mse(self):
        assert mse([1.0, 0.0, 1.0], [1, 0, 1]) == 0.0

    def test_reversed_ranking(self):
        assert auc([0.1, 0.9], [1, 0]) == 0.0

    def test_ties_count_half(self):
        assert auc([0.7, 0.7, 0.1], [1, 0, 0]) == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.5, 0.6], [1, 1])

    def test_metrics_dict(self):
        m = metrics([0.9, 0.1], [1, 0])
        assert m["auc"] == 1.0 and m["mse"] == pytest.approx(0.01)
