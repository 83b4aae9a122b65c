import numpy as np
import pytest

from conftest import reference_cone, reference_cross_entropy
from softlog import training
from softlog.datasets import TASKS, TaskSpec, generate, split
from softlog.grounding import ground_context
from softlog.infer import MULTI, PAIR, WeightSet, infer, tape_floats
from softlog.logic import Atom, Clause, Const, ILPProblem, Var
from softlog.parser import parse_atom, parse_clause
from softlog.training import (
    TrainConfig,
    _loss_and_grad,
    auc,
    extract_program,
    make_labels,
    metrics,
    mse,
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


@pytest.fixture
def member_ctx():
    """A member problem, its grounding over the initial clause, and random
    weights."""
    problem = generate(TaskSpec("member", n_per_class=5, seed=0))
    ctx = ground_context(problem, problem.initial_clauses, steps=2)
    return problem, ctx, WeightSet.random(2, len(problem.initial_clauses), seed=0)


class TestPredict:
    def test_background_predicts_one(self, member_ctx):
        problem, ctx, w = member_ctx
        got = predictions([problem.background[0]], ctx, w, steps=2, gamma=1e-5)
        assert got[0] == pytest.approx(1.0, abs=1e-3)

    def test_false_atom_near_zero(self, member_ctx):
        _, ctx, w = member_ctx
        assert infer(ctx.x, ctx.v0, w, 2, gamma=1e-5)[0] < 1e-3

    def test_missing_atom_raises(self, member_ctx):
        problem, ctx, w = member_ctx
        stranger = parse_atom("mem(a,[a,b,c,a,b])", problem.language)
        if stranger not in ctx.index:
            with pytest.raises(KeyError):
                predictions([stranger], ctx, w, steps=2, gamma=1e-5)

    def test_member_ground_truth_scores_high(self):
        problem = generate(TaskSpec("member", n_per_class=10, seed=3))
        truth = list(TASKS["member"].ground_truth)
        ctx = ground_context(problem, truth, steps=4)
        w = WeightSet.one_hot(list(range(len(truth))), len(truth))
        scores = predictions(list(problem.pos), ctx, w, steps=4, gamma=1e-5)
        assert (scores >= 0.99).all()


class TestLoss:
    """The loss of ``_loss_and_grad`` against ``reference_cross_entropy``."""

    @staticmethod
    def _loss(v_g, subgoal, y):
        # atoms false, true and g; one clause derives g from the subgoal
        xt = np.array([[[0], [1], [subgoal]]])
        v0 = np.array([0.0, 1.0, v_g])
        w = WeightSet.one_hot([0], 1)
        cfg = TrainConfig(m=1, steps=1)
        idx, y = np.full(len(y), 2), np.asarray(y, dtype=float)
        loss, _ = _loss_and_grad(xt, v0, w, idx, y, cfg)
        p = infer(xt, v0, w, cfg.steps, cfg.gamma)[idx]
        assert loss == pytest.approx(reference_cross_entropy(p, y), rel=1e-12)
        return loss

    def test_perfect_prediction_zero(self):
        assert self._loss(0.0, 1, [1]) == pytest.approx(0.0, abs=1e-6)

    def test_half_is_log2(self):
        assert self._loss(0.5, 0, [1]) == pytest.approx(np.log(2))
        assert self._loss(0.5, 0, [0, 1]) == pytest.approx(np.log(2))

    def test_gradient_step_decreases_loss(self):
        # statistical check: a small step along the negative gradient reduces
        # the batch loss on random instances
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
            loss0, grad = _loss_and_grad(xt, v0, w, idx, y, cfg)
            p = infer(xt, v0, w, cfg.steps, cfg.gamma)[idx]
            assert loss0 == pytest.approx(reference_cross_entropy(p, y), rel=1e-12)
            w2 = WeightSet(MULTI, w.w - 1e-3 * grad)
            loss1, _ = _loss_and_grad(xt, v0, w2, idx, y, cfg)
            wins += loss1 < loss0 + 1e-12
        assert wins >= 18


class TestTrain:
    def test_bit_identical_histories(self):
        problem = generate(TaskSpec("member", n_per_class=10, seed=0))
        train_p, _ = split(problem, 0.7, 0)
        clauses = list(problem.initial_clauses)
        ctx = ground_context(train_p, clauses, steps=2)
        cfg = TrainConfig(m=2, steps=2, epochs=40, seed=7)
        w1, h1 = train(train_p, ctx, cfg)
        w2, h2 = train(train_p, ctx, cfg)
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
            _, hist = train(train_p, ctx, cfg)
            head = np.mean(hist[:10])
            tail = np.mean(hist[-10:])
            wins += tail < head
        assert wins >= 4

    def test_param_count_multi(self):
        problem = generate(TaskSpec("member", n_per_class=5, seed=0))
        clauses = list(problem.initial_clauses) * 3
        ctx = ground_context(problem, clauses, steps=2)
        cfg = TrainConfig(m=2, steps=2, epochs=1, seed=0)
        w, _ = train(problem, ctx, cfg)
        assert w.param_count == 2 * len(clauses)

    def test_pair_mode_param_count(self):
        problem = generate(TaskSpec("member", n_per_class=5, seed=0))
        clauses = list(problem.initial_clauses) * 3
        ctx = ground_context(problem, clauses, steps=2)
        cfg = TrainConfig(m=2, steps=2, epochs=1, seed=0, weight_mode=PAIR)
        w, _ = train(problem, ctx, cfg)
        assert w.param_count == len(clauses) ** 2

    @staticmethod
    def assert_tape_budget_is_exact(monkeypatch, mode, per_step):
        # a layered pass computes, at step k, the atoms within T - k hops of
        # the batch, so one label alone computes sum over d < T of its d-hop
        # cone; the budget holds any draw: the `batch` largest such sums, at
        # most T·|G| (which binds when every label is in the batch), times
        # the floats recorded per atom-step, per_step(m, |C|, B)
        steps, m = 3, 2
        problem = generate(TaskSpec("delete", n_per_class=5, seed=0))
        clauses = [*TASKS["delete"].ground_truth, *problem.initial_clauses]
        ctx = ground_context(problem, clauses, steps)
        labels = make_labels(problem)
        work = sorted(
            sum(len(reference_cone(ctx.x, ctx.index_of(a), d)) for d in range(steps))
            for a, _ in labels
        )
        layered, on_cone = [], training._on_cone

        def spy(*args):
            out = on_cone(*args)
            layered.append(sum(out[3]))
            return out

        monkeypatch.setattr(training, "_on_cone", spy)
        for batch_frac in (0.3, 1.0):
            batch = int(np.ceil(batch_frac * len(labels)))
            most = min(steps * len(ctx), sum(work[-batch:]))
            floats = per_step(m, len(clauses), ctx.x.shape[2]) * most
            cfg = TrainConfig(
                m=m, steps=steps, epochs=20, seed=0, weight_mode=mode,
                batch_frac=batch_frac,
            )
            monkeypatch.setattr(training, "TAPE_FLOATS", floats - 1)
            refused = f"{mode} mode would record up to {floats:,} floats"
            with pytest.raises(ValueError, match=refused):
                train(problem, ctx, cfg)
            monkeypatch.setattr(training, "TAPE_FLOATS", floats)
            layered.clear()
            w, _ = train(problem, ctx, cfg)
            assert w.param_count == (len(clauses) if mode == PAIR else m) * len(clauses)
            assert len(layered) == 20 and max(layered) <= most

    def test_pair_tape_over_budget_refused(self, monkeypatch):
        # coefficients (2), pairwise smooth-ors and their first operands'
        # coefficients (|C|² each), index cells and the products of the
        # other subgoals (|C|·B each)
        self.assert_tape_budget_is_exact(
            monkeypatch, PAIR, lambda m, c, b: 2 + 2 * c**2 + 2 * c * b
        )

    def test_multi_tape_over_budget_refused(self, monkeypatch):
        # coefficients (m + 1), clause outputs (|C|), index cells and the
        # products of the other subgoals (|C|·B each)
        self.assert_tape_budget_is_exact(
            monkeypatch, MULTI, lambda m, c, b: m + 1 + c * (2 * b + 1)
        )


    @pytest.mark.parametrize("mode", [MULTI, PAIR])
    @pytest.mark.parametrize("body", [1, 2])
    def test_tape_floats_count_the_recorded_tape(self, body, mode, monkeypatch):
        # one epoch's recorded pass holds tape_floats per atom each step
        # computes; one-atom bodies keep no products of the other subgoals
        # (None), so with B = 1 the tape holds less
        m, steps = 2, 3
        problem = generate(TaskSpec("member", n_per_class=5, seed=0))
        clauses = [*TASKS["member"].ground_truth, *problem.initial_clauses]
        if body == 2:
            clauses.append(parse_clause("mem(x,f(y,z)) :- mem(x,z), mem(y,z)",
                                        problem.language))
        ctx = ground_context(problem, clauses, steps)
        assert ctx.x.shape[2] == body
        tapes, record = [], training.infer

        def spy(*args, **kwargs):
            out = record(*args, **kwargs)
            tapes.append(out[1])
            return out

        monkeypatch.setattr(training, "infer", spy)
        train(problem, ctx, TrainConfig(m=m, steps=steps, epochs=1, weight_mode=mode,
                                        batch_frac=0.5))
        (tape,) = tapes
        kept = 0
        for x, others, mix, coef in tape.steps:
            arrays = (x, others, *(mix if mode == PAIR else (mix,)), coef)
            kept += sum(arr.size for arr in arrays if arr is not None)
        atom_steps = sum(rec[0].shape[1] for rec in tape.steps)
        bound = tape_floats(mode, m, len(clauses), body) * atom_steps
        assert kept == bound if body == 2 else kept <= bound


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [("m", 0), ("steps", 0), ("gamma", 0.0), ("gamma", -1e-5),
         ("gamma", float("nan")), ("epochs", -5), ("batch_frac", 0.0),
         ("batch_frac", -1.0), ("batch_frac", 1.5), ("lr", -1.0), ("lr", 0.0),
         ("gamma", float("inf")), ("lr", float("inf")), ("weight_mode", "Multi"),
         ("gamma", 1e-320)],
    )
    def test_bad_field_refused_before_any_work(self, field, value):
        # refused when the config is built, before any problem is touched
        with pytest.raises(ValueError, match=f"TrainConfig.{field} must"):
            TrainConfig(**{field: value})


def _task_batches(task, steps):
    """A task's grounding with its reference program among the clauses, and
    the per-label hop distances, indexes and labels."""
    problem = generate(TaskSpec(task, n_per_class=10, seed=0))
    clauses = [*TASKS[task].ground_truth, *problem.initial_clauses]
    ctx = ground_context(problem, clauses, steps)
    labels = make_labels(problem)
    idx_all = np.array([ctx.index_of(a) for a, _ in labels])
    y_all = np.array([y for _, y in labels], dtype=np.float64)
    return clauses, ctx, ctx.v0, idx_all, y_all, training._hops(ctx.x, idx_all, steps)


class TestCone:
    @pytest.mark.parametrize("mode", [MULTI, PAIR])
    @pytest.mark.parametrize("task", sorted(TASKS))
    def test_cone_loss_and_grad_match_full_grounding(self, task, mode):
        # The layered epoch path (each step computes only the atoms within
        # T - k hops of the batch) against a full pass over G.  Equal in real
        # arithmetic.  BLAS groups the sums over atoms by column position, so
        # a gradient entry that is zero in real arithmetic can come out as a
        # rounding residue (about 1e-17 of the largest entry) on one side and
        # 0.0 on the other: atol is rtol times that entry.
        rng = np.random.default_rng(0)
        for steps in (2, 3):
            clauses, ctx, v0, idx_all, y_all, hops = _task_batches(task, steps)
            for trial, gamma in enumerate((1e-5, 1e-5, 0.1, 0.1)):
                cfg = TrainConfig(steps=steps, gamma=gamma, weight_mode=mode)
                w = WeightSet.random(2, len(clauses), trial, mode=mode)
                pick = rng.choice(len(idx_all), size=4, replace=False)
                idx, y = idx_all[pick], y_all[pick]
                loss, grad = training._loss_and_grad(ctx.x, v0, w, idx, y, cfg)
                x, v0_cone, idx_cone, widths = training._on_cone(
                    ctx.x, v0, idx, hops[pick].min(axis=0), steps
                )
                assert len(v0_cone) < len(ctx)
                assert len(widths) == steps
                loss_c, grad_c = training._loss_and_grad(
                    x, v0_cone, w, idx_cone, y, cfg, widths
                )
                assert np.allclose(loss_c, loss, rtol=1e-12, atol=0)
                assert np.allclose(
                    grad_c, grad, rtol=1e-12, atol=1e-12 * np.abs(grad).max()
                )

    def test_training_logs_the_batch_cone(self, caplog, monkeypatch):
        problem = generate(TaskSpec("member", n_per_class=10, seed=0))
        clauses = [*TASKS["member"].ground_truth, *problem.initial_clauses]
        ctx = ground_context(problem, clauses, steps=3)
        layered, on_cone = [], training._on_cone

        def spy(*args):
            out = on_cone(*args)
            layered.append((len(out[1]), sum(out[3])))
            return out

        monkeypatch.setattr(training, "_on_cone", spy)
        with caplog.at_level("INFO", logger="softlog.training"):
            train(problem, ctx, TrainConfig(steps=3, epochs=5))
        (line,) = [r.getMessage() for r in caplog.records if r.name == "softlog.training"]
        sizes, work = zip(*layered)
        assert f"|G|={len(ctx)}, 20 labelled atoms, batch cone median" in line
        assert line.endswith(
            f"atoms computed per epoch median {int(np.median(work))} "
            f"of T·|cone| {3 * int(np.median(sizes))}"
        )
        assert np.median(work) < 3 * np.median(sizes)


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
        # every score tied within its class
        assert auc([0.3, 0.9, 0.3, 0.9, 0.3], [1, 0, 1, 0, 1]) == 0.0
        assert auc([0.9, 0.3, 0.9, 0.3, 0.9], [1, 0, 1, 0, 1]) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.5, 0.6], [1, 1])

    def test_metrics_dict(self):
        m = metrics([0.9, 0.1], [1, 0])
        assert m["auc"] == 1.0 and m["mse"] == pytest.approx(0.01)
