"""Self-tests of the benchmark's checks: each check passes on a right output
and rejects a deliberately wrong one.  Run from the repository root:

    python3 -m pytest benchmarks/test_checks.py -q
"""
from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from softlog import run  # noqa: E402
from softlog.datasets import ORACLE_DEPTH, TASKS, TaskSpec, generate  # noqa: E402
from softlog.grounding import convert_background, ground_context  # noqa: E402
from softlog.infer import WeightSet, infer  # noqa: E402
from softlog.parser import parse_clause  # noqa: E402
from softlog.training import make_labels, metrics  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Capture  # noqa: E402

TD = TASKS["member"]
GAMMA = 1e-5


@pytest.fixture(scope="module")
def member():
    """A small member problem, the reference clauses plus one decoy, its
    grounding, and one-hot weights on the reference program."""
    problem = generate(TaskSpec("member", n_per_class=10, seed=0))
    clauses = [*TD.ground_truth, parse_clause("mem(x,[y|z])", TD.language)]
    ctx = ground_context(problem, clauses, TD.steps)
    weights = WeightSet.one_hot([0, 1], len(clauses))
    return SimpleNamespace(problem=problem, clauses=clauses, ctx=ctx, weights=weights)


def _scores(m, atoms):
    v = infer(m.ctx.x, convert_background(m.problem.background, m.ctx.atoms),
              m.weights, TD.steps, GAMMA)
    return [float(v[m.ctx.index_of(a)]) for a in atoms]


def test_labels_reject_a_mislabelled_example(member):
    labels = make_labels(member.problem)
    bg = member.problem.background
    assert checks.label_mismatches(labels, bg, TD.ground_truth, ORACLE_DEPTH) == []
    labels[0] = (labels[0][0], 0)
    assert len(checks.label_mismatches(labels, bg, TD.ground_truth, ORACLE_DEPTH)) == 1


def test_tensor_prover_rejects_a_dropped_clause(member):
    m = member
    args = (m.ctx, m.problem.background, m.weights)
    assert checks.tensor_prover_mismatches(*args, TD.ground_truth, m.ctx.atoms, TD.steps, GAMMA) == []
    dropped = TD.ground_truth[:1]
    assert checks.tensor_prover_mismatches(*args, dropped, m.ctx.atoms, TD.steps, GAMMA)


def test_argmax_weights_follow_the_trained_weights():
    w = WeightSet("multi", np.array([[0.1, 0.7, 0.2], [0.9, 0.0, 0.3]]))
    picked = checks.argmax_weights(w)
    assert [int(i) for i in np.argmax(picked.w, axis=1)] == [1, 0]


def test_query_rejects_one_flipped_prediction(member):
    atoms = [a for a, _ in make_labels(member.problem)]
    scores = _scores(member, atoms)
    bg = member.problem.background
    assert checks.query_mismatches(atoms, scores, TD.ground_truth, bg, TD.steps) == []
    scores[3] = 1.0 - scores[3]
    assert len(checks.query_mismatches(atoms, scores, TD.ground_truth, bg, TD.steps)) == 1


def test_accuracy_floor_rejects_a_dropped_clause(member):
    labels = make_labels(member.problem)
    bg = member.problem.background
    assert checks.heldout_accuracy(TD.ground_truth, bg, labels, TD.steps) == 1.0
    for i in range(len(TD.ground_truth)):
        dropped = TD.ground_truth[:i] + TD.ground_truth[i + 1:]
        assert checks.heldout_accuracy(dropped, bg, labels, TD.steps) < checks.ACCURACY_FLOOR


def test_metrics_reject_a_wrong_auc_or_mse(member):
    labels = make_labels(member.problem)
    scores = _scores(member, [a for a, _ in labels])
    ys = [y for _, y in labels]
    right = metrics(scores, ys)
    assert checks.metric_mismatches(scores, ys, right) == []
    assert checks.metric_mismatches(scores, ys, {**right, "auc": right["auc"] - 0.01})
    assert checks.metric_mismatches(scores, ys, {**right, "mse": right["mse"] + 1e-3})


def test_record_differences_reject_a_changed_program():
    rec = SimpleNamespace(**{f: 0 for f in checks.RECORD_FIELDS})
    rec.program = ["mem(x,[x|y])", "mem(x,[y|z]) :- mem(x,z)"]
    assert checks.record_differences(rec, SimpleNamespace(**vars(rec))) == []
    other = SimpleNamespace(**{**vars(rec), "program": rec.program[:1]})
    assert len(checks.record_differences(rec, other)) == 1


def _run_captured(workload, inp):
    capture = Capture()
    with capture.installed():
        result = workload.run_job(inp)
    return workloads.Outcome(inp.task, result, None, list(capture.contexts), list(capture.scores))


def test_learning_job_check_rejects_a_dropped_clause():
    """The whole learning check, on a real member job: it passes as run, and
    fails once the reported program loses a clause."""
    wl = workloads.LearnWorkload(("member",))
    (inp,) = wl.setup(0)
    out = _run_captured(wl, inp)
    bad, info = wl.check(inp, out)
    assert bad == [] and info["heldout_accuracy"] == 1.0
    record = replace(out.result.record, program=out.result.record.program[:1])
    out.result = replace(out.result, record=record)
    assert wl.check(inp, out)[0]


def test_query_job_check_rejects_a_flipped_prediction():
    wl = workloads.QueryWorkload()
    inp = next(i for i in wl.setup(1) if i.task == "member")
    out = _run_captured(wl, inp)
    assert wl.check(inp, out)[0] == []
    scores = out.scores[0].copy()
    scores[0] = 1.0 - scores[0]
    out.scores = [scores]
    assert wl.check(inp, out)[0]


def test_learning_pass_rejects_a_changed_rerun():
    wl = workloads.LearnWorkload(("member",))
    rec = run.RunRecord("member", 0, {}, "", 7, 120, 14, [], 0.0, 0.0, 1.0, 1.0, 1.0, ["a"])
    first = workloads.Outcome("member", SimpleNamespace(record=rec))
    again = workloads.Outcome("member", SimpleNamespace(record=replace(rec, runtime_s=2.0)))
    changed = workloads.Outcome("member", SimpleNamespace(record=replace(rec, test_mse=0.5)))
    assert wl.same(first, again) == []
    assert wl.same(first, changed)
