"""Acceptance suite: every criterion at its stated tolerance, one test each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS lines.  The heavy learning matrices are shared across criteria through
module-scoped fixtures, so the whole module stays within its time budget.
"""
import random
import time

import numpy as np
import pytest

from softlog.datasets import TASKS, TaskSpec, generate, split
from softlog.grounding import (
    build_index_tensor,
    context_from_atoms,
    convert_background,
    enumerate_atoms,
    ground_context,
)
from softlog.infer import MULTI, PAIR, WeightSet, backward, infer, softor
from softlog.logic import (
    Atom,
    Const,
    FALSE,
    Func,
    Language,
    TRUE,
    apply_subst,
    canonical,
    unify,
)
from softlog.parser import parse_atom, parse_clause
from softlog.problem import ILPProblem
from softlog.prover import ProofConfig
from softlog.refine import refine
from softlog.run import default_beam_config, default_train_config, run_problem
from softlog.search import BeamConfig, beam_search
from softlog.training import TrainConfig, extract_program, train
from conftest import (
    forward_closure,
    random_atom,
    random_ground_atom,
    reference_unify,
    subsumes,
)

pytestmark = pytest.mark.acceptance

SEEDS = (0, 1, 2, 3, 4)

TABLE4_EXACT = {
    "member": ("mem(x,[y|z]) :- mem(x,z)", "mem(x,[x|y])"),
    "delete": ("del(x,[x|y],y)", "del(x,[y|z],[y|v]) :- del(x,z,v)"),
}


def _run(task, seed, **kw):
    problem = generate(TaskSpec(task, n_per_class=50, seed=seed))
    return run_problem(
        problem,
        default_train_config(task, seed=seed),
        default_beam_config(task),
        **kw,
    )


@pytest.fixture(scope="module")
def clean_runs():
    return {
        (task, seed): _run(task, seed)
        for task in sorted(TASKS)
        for seed in SEEDS
    }


@pytest.fixture(scope="module")
def noisy_runs():
    return {
        (task, noise, seed): _run(task, seed, noise=noise)
        for task in ("member", "subtree")
        for noise in (0.1, 0.3)
        for seed in SEEDS
    }


# ---------------------------------------------------------------------------
# Criterion 1: golden worked examples, exactly
# ---------------------------------------------------------------------------

def test_criterion_1_golden_examples():
    t0 = time.perf_counter()
    # refinement of p(x,y) contains the eight listed clauses
    lang = Language(
        predicates=[("p", 2), ("q", 2)],
        functions=[("f", 1)],
        constants=["a", "b"],
        variables=["x", "y", "z"],
    )
    got = {canonical(c) for c in refine(parse_clause("p(x,y)", lang), lang)}
    for text in (
        "p(a,y)", "p(x,a)", "p(b,y)", "p(x,b)", "p(x,x)",
        "p(f(z),y)", "p(x,f(z))", "p(x,y) :- q(x,y)",
    ):
        assert canonical(parse_clause(text, lang)) in got, text

    # two-step, width-two beam returns exactly the narrated clause set
    lang3 = Language(
        predicates=[("p", 2), ("q", 2)],
        functions=[("f", 1)],
        constants=["a", "b", "c"],
        variables=["x", "y", "z"],
    )
    A = lambda t: parse_atom(t, lang3)
    worked = ILPProblem(
        pos=(A("p(a,a)"), A("p(b,b)"), A("p(b,c)"), A("p(c,b)")),
        neg=(A("p(a,b)"), A("p(b,a)")),
        background=(A("q(b,c)"), A("q(c,b)")),
        language=lang3,
        initial_clauses=(parse_clause("p(x,y)", lang3),),
    )
    beam = beam_search(
        list(worked.initial_clauses), worked,
        BeamConfig(beam_size=2, beam_steps=2), proof_cfg=ProofConfig(2),
    )
    expect = {
        canonical(parse_clause(t, lang3))
        for t in ("p(x,y)", "p(x,x)", "p(x,y) :- q(x,y)")
    }
    assert expect <= {canonical(c) for c in beam}
    assert canonical(parse_clause("p(f(x),y)", lang3)) not in {
        canonical(c) for c in beam
    }

    # enumeration returns the seven-atom set, skipping odd heights
    nat_lang = Language(
        predicates=[("e", 1)], functions=[("s", 1)], constants=["0"],
        variables=["x", "y", "z", "v", "w"],
    )

    def e(n):
        t = Const("0")
        for _ in range(n):
            t = Func("s", (t,))
        return Atom("e", (t,))

    even = ILPProblem(
        pos=(e(6),), neg=(e(1),), background=(e(0),),
        language=nat_lang, initial_clauses=(),
    )
    step_clause = parse_clause("e(s(s(x))) :- e(x)", nat_lang)
    atoms = enumerate_atoms(even, [step_clause], steps=2)
    assert set(atoms) == {FALSE, TRUE, e(0), e(1), e(2), e(4), e(6)}
    assert e(3) not in set(atoms) and e(5) not in set(atoms)

    # index tensor equals the printed table
    table_atoms = [FALSE, TRUE, e(0), e(1), e(2), e(4)]
    X = build_index_tensor([parse_clause("e(x)", nat_lang), step_clause], table_atoms)
    assert X[0].ravel().tolist() == [0, 1, 1, 1, 1, 1]
    assert X[1].ravel().tolist() == [0, 1, 0, 0, 2, 4]
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"\nACCEPTANCE 1 PASS: golden refinement/beam/enumeration/tensor ({dt*1e3:.0f} ms)")


# ---------------------------------------------------------------------------
# Criterion 2: one-hot inference agrees with the symbolic closure
# ---------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for task, td in sorted(TASKS.items()):
        truth = list(td.ground_truth)
        for inst in range(100):
            problem = generate(TaskSpec(task, n_per_class=6, seed=9000 + inst))
            ctx = ground_context(problem, truth, td.steps)
            v0 = convert_background(problem.background, ctx.atoms)
            w = WeightSet.one_hot(list(range(len(truth))), len(truth))
            v = infer(ctx.x, v0, w, td.steps, gamma=1e-3)
            closure = forward_closure(truth, problem.background, ctx.atoms, td.steps)
            got = {a for a, val in zip(ctx.atoms, v) if val >= 0.5}
            assert got == (closure & set(ctx.atoms)) | {TRUE}, (
                f"{task} instance {inst}: mismatch"
            )
            checked += len(ctx.atoms)
    dt = time.perf_counter() - t0
    print(f"\nACCEPTANCE 2 PASS: 5 tasks x 100 instances, {checked} atom checks, 0 mismatches ({dt:.1f} s)")


# ---------------------------------------------------------------------------
# Criterion 3: analytic gradients match central finite differences
# ---------------------------------------------------------------------------

def test_criterion_3_gradient_correctness():
    t0 = time.perf_counter()
    gamma, h = 0.1, 1e-4
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        mode = MULTI if trial < 14 else PAIR
        n_c = int(rng.integers(2, 7))
        n_a = int(rng.integers(8, 41))
        b = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        T = int(rng.integers(1, 4))
        x = rng.integers(0, n_a, size=(n_c, n_a, b))
        x[:, 0, :] = 0
        x[:, 1, :] = 1
        v0 = rng.random(n_a)
        v0[0], v0[1] = 0.0, 1.0
        w = WeightSet.random(m, n_c, seed=trial, mode=mode)
        w.w *= 10
        grad_out = rng.random(n_a)
        _, tape = infer(x, v0, w, T, gamma, record=True)
        g = backward(tape, grad_out)
        g_num = np.zeros_like(w.w)
        it = np.nditer(w.w, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            wp = WeightSet(mode, w.w.copy())
            wp.w[i] += h
            wm = WeightSet(mode, w.w.copy())
            wm.w[i] -= h
            fp = float(np.dot(grad_out, infer(x, v0, wp, T, gamma)))
            fm = float(np.dot(grad_out, infer(x, v0, wm, T, gamma)))
            g_num[i] = (fp - fm) / (2 * h)
        mask = np.abs(g) > 1e-8
        if mask.any():
            rel = np.abs(g - g_num)[mask] / np.maximum(np.abs(g_num)[mask], 1e-12)
            worst = max(worst, float(rel.max()))
    assert worst < 1e-4, f"max relative error {worst}"
    dt = time.perf_counter() - t0
    print(f"\nACCEPTANCE 3 PASS: 20 instances, max rel err {worst:.2e} < 1e-4 ({dt:.1f} s)")


# ---------------------------------------------------------------------------
# Criterion 4: learned-program reproduction at §-default hyperparameters
# ---------------------------------------------------------------------------

def test_criterion_4_program_reproduction(clean_runs):
    t0 = time.perf_counter()
    for task, targets in TABLE4_EXACT.items():
        lang = TASKS[task].language
        want = {canonical(parse_clause(t, lang)) for t in targets}
        hits = 0
        for seed in SEEDS:
            rec = clean_runs[(task, seed)].record
            got = {canonical(parse_clause(t, lang)) for t in rec.program}
            hits += got == want
        assert hits >= 3, f"{task}: exact program in {hits}/5 seeds"
        print(f"\nACCEPTANCE 4 [{task}]: exact reference program in {hits}/5 seeds")
    for task in ("plus", "append", "subtree"):
        mses = [clean_runs[(task, seed)].record.test_mse for seed in SEEDS]
        assert min(mses) < 0.01, f"{task}: best test MSE {min(mses)}"
        print(f"ACCEPTANCE 4 [{task}]: best-of-5 test MSE {min(mses):.2e} < 0.01")
    runtime = sum(clean_runs[k].record.runtime_s for k in clean_runs)
    assert runtime < 900, f"criterion-4 matrix took {runtime:.0f}s"
    print(f"ACCEPTANCE 4 PASS: full matrix in {runtime:.0f} s (< 900 s)")


# ---------------------------------------------------------------------------
# Criterion 5: noise robustness
# ---------------------------------------------------------------------------

def test_criterion_5_noise_robustness(clean_runs, noisy_runs):
    for task in ("member", "subtree"):
        at10 = [noisy_runs[(task, 0.1, s)].record.test_mse for s in SEEDS]
        assert np.mean(at10) < 0.05, f"{task}@10%: mean {np.mean(at10):.3f}"
        clean = [clean_runs[(task, s)].record.test_mse for s in SEEDS]
        at30 = [noisy_runs[(task, 0.3, s)].record.test_mse for s in SEEDS]
        assert np.mean(clean) <= np.mean(at30), f"{task}: noise trend inverted"
        print(
            f"\nACCEPTANCE 5 [{task}]: mean test MSE {np.mean(clean):.4f} (0%) / "
            f"{np.mean(at10):.4f} (10%) / {np.mean(at30):.4f} (30%)"
        )
    print("ACCEPTANCE 5 PASS: 10% noise under 0.05; trend monotone 0% <= 30%")


# ---------------------------------------------------------------------------
# Criterion 6: scored beam beats unscored generation
# ---------------------------------------------------------------------------

def test_criterion_6_beam_vs_naive(clean_runs):
    t0 = time.perf_counter()
    for task in ("append", "delete"):
        best = max(
            (clean_runs[(task, s)].record for s in SEEDS),
            key=lambda r: r.test_auc,
        )
        assert best.test_auc == 1.0, f"{task}: best AUC {best.test_auc}"
        assert best.n_clauses <= 40, f"{task}: |C| = {best.n_clauses}"
        naive = [
            _run(task, s, naive_n=10).record.test_auc for s in SEEDS
        ]
        capped = [
            _run(task, s, clause_cap=10).record.test_auc for s in SEEDS
        ]
        assert np.mean(naive) < np.mean(capped), (
            f"{task}: naive {np.mean(naive):.3f} !< beam {np.mean(capped):.3f}"
        )
        print(
            f"\nACCEPTANCE 6 [{task}]: best beam AUC {best.test_auc:.2f} at "
            f"|C|={best.n_clauses}; 10-clause mean AUC naive {np.mean(naive):.3f} "
            f"< beam {np.mean(capped):.3f}"
        )
    print(f"ACCEPTANCE 6 PASS ({time.perf_counter()-t0:.0f} s)")


# ---------------------------------------------------------------------------
# Criterion 7: parameter counts and runtime ratio
# ---------------------------------------------------------------------------

def test_criterion_7_parameters_and_runtime():
    t0 = time.perf_counter()
    assert WeightSet.random(2, 12, seed=0, mode=MULTI).param_count == 24
    assert WeightSet.random(2, 12, seed=0, mode=PAIR).param_count == 144

    problem = generate(TaskSpec("plus", n_per_class=50, seed=0))
    train_p, _ = split(problem, 0.7, 0)
    clauses = beam_search(
        list(problem.initial_clauses), train_p, default_beam_config("plus"),
        proof_cfg=ProofConfig(8),
    )
    ctx = ground_context(train_p, clauses, 8)
    times = {}
    for mode in (MULTI, PAIR):
        cfg = TrainConfig(m=3, steps=8, seed=0, weight_mode=mode, epochs=20)
        t1 = time.perf_counter()
        train(train_p, ctx, cfg)
        times[mode] = (time.perf_counter() - t1) / 20
    assert times[MULTI] < times[PAIR], times
    print(
        f"\nACCEPTANCE 7 PASS: params 24 vs 144 at m=2,|C|=12; per-step "
        f"{times[MULTI]*1e3:.1f} ms (multi) < {times[PAIR]*1e3:.1f} ms (pair) "
        f"on |C|={len(clauses)}, |G|={len(ctx)} ({time.perf_counter()-t0:.0f} s)"
    )


# ---------------------------------------------------------------------------
# Criterion 8: ground-atom counts in the expected regime
# ---------------------------------------------------------------------------

def test_criterion_8_ground_atom_regime(clean_runs):
    sizes = {}
    for (task, seed), res in clean_runs.items():
        n = res.record.n_atoms
        assert 50 <= n <= 10000, f"{task} seed {seed}: |G| = {n}"
        sizes.setdefault(task, {})[seed] = n
    at_seed0 = {task: sizes[task][0] for task in sizes}
    smallest = min(at_seed0, key=at_seed0.get)
    assert smallest == "member", f"|G| at seed 0: {at_seed0}"
    print(f"\nACCEPTANCE 8 PASS: |G| in [50, 10000] for all runs; seed-0 counts {at_seed0}")


# ---------------------------------------------------------------------------
# Criterion 9: property checks, standalone and fast
# ---------------------------------------------------------------------------

def test_criterion_9_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(0)
    lang = Language(
        predicates=[("p", 2), ("q", 2)],
        functions=[("f", 1)],
        constants=["a", "b"],
        variables=["x", "y", "z"],
    )
    # unification laws: the general ones on the tests' unifier, and the
    # library's one-way matching against ground atoms (drawn apart, so the
    # checks below see the same draws)
    ground_rng = random.Random(1)
    for _ in range(200):
        left, right = random_atom(rng, lang), random_atom(rng, lang)
        theta = reference_unify(left, right)
        if theta is not None:
            assert apply_subst(left, theta) == apply_subst(right, theta)
        ground = random_ground_atom(ground_rng, lang)
        theta = unify(left, ground)
        assert theta == reference_unify(left, ground)
        if theta is not None:
            assert apply_subst(left, theta) == ground

    # refinement subsumption
    seed_clause = parse_clause("p(x,y)", lang)
    frontier = [seed_clause]
    for _ in range(40):
        c = rng.choice(frontier)
        rs = refine(c, lang)
        if rs:
            r = rng.choice(rs)
            assert subsumes(c, r)
            frontier.append(r)

    # enumeration monotonicity in T
    nat_lang = Language(
        predicates=[("e", 1)], functions=[("s", 1)], constants=["0"],
        variables=["x", "y", "z", "v", "w"],
    )

    def e(n):
        t = Const("0")
        for _ in range(n):
            t = Func("s", (t,))
        return Atom("e", (t,))

    even = ILPProblem(
        pos=(e(6),), neg=(e(1),), background=(e(0),),
        language=nat_lang, initial_clauses=(),
    )
    step_clause = parse_clause("e(s(s(x))) :- e(x)", nat_lang)
    prev = set()
    for t in range(1, 5):
        cur = set(enumerate_atoms(even, [step_clause], steps=t))
        assert prev <= cur
        prev = cur

    # softor dominates max; single argument is identity
    xs = np.random.default_rng(0).random((4, 50)) * 2
    assert (softor(xs, 1e-5, axis=0) >= xs.max(axis=0) - 1e-15).all()
    one = np.random.default_rng(1).random((1, 50))
    assert (softor(one, 1e-5, axis=0) == one[0]).all()

    # valuation monotonicity in t
    ctx = context_from_atoms(
        [parse_clause("e(x)", nat_lang), step_clause],
        [FALSE, TRUE, e(0), e(1), e(2), e(4)],
    )
    w = WeightSet.random(2, 2, seed=3)
    v = convert_background([e(0)], ctx.atoms)
    for _ in range(5):
        nxt = infer(ctx.x, v, w, 1, 1e-5)
        assert (nxt >= v - 1e-9).all()
        v = nxt

    # extraction shift-invariance
    clauses = [parse_clause("e(x)", nat_lang), step_clause]
    w0 = WeightSet(MULTI, np.array([[1.2, 0.1], [-0.3, 0.9]]))
    shifted = WeightSet(MULTI, w0.w + np.array([[5.0], [-2.0]]))
    assert list(extract_program(w0, clauses)) == list(extract_program(shifted, clauses))

    # determinism under seed
    a = generate(TaskSpec("member", n_per_class=10, seed=11))
    b = generate(TaskSpec("member", n_per_class=10, seed=11))
    assert a.pos == b.pos and a.neg == b.neg
    train_p, _ = split(a, 0.7, 1)
    ctx = ground_context(train_p, list(a.initial_clauses), 2)
    cfg = TrainConfig(m=2, steps=2, epochs=30, seed=1)
    _, h1 = train(train_p, ctx, cfg)
    _, h2 = train(train_p, ctx, cfg)
    assert h1 == h2

    dt = time.perf_counter() - t0
    assert dt < 120, f"property suite took {dt:.0f}s"
    print(f"\nACCEPTANCE 9 PASS: property suite green in {dt:.1f} s (< 120 s)")
