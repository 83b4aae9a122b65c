"""The benchmark's probe points exist and see work.

``benchmarks/tracer.py`` wraps ``softlog`` module attributes by name, such
as ``softlog.prover.unify`` and ``softlog.grounding.apply_subst``.  After a
rename in ``src/``, ``benchmarks/run.py --trace 1`` would crash with
``AttributeError`` or count zero calls.  This test runs one small job under
the tracer, so such a rename fails here first.

The benchmark's learning check also relies on ``tracer.Capture``: it needs
exactly one grounding outside ``run.evaluate`` (training) and one scoring
inside it (the held-out atoms).
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from softlog import run  # noqa: E402
from softlog.datasets import TaskSpec, generate  # noqa: E402
from tracer import Capture, Tracer, layer_metrics  # noqa: E402

PROBED = (
    "prover.unify_calls",
    "prover.apply_subst_calls",
    "grounding.unify_calls",
    "grounding.apply_subst_calls",
    "search.clauses_scored",
    "grounding.atoms",
    "infer.calls",
    "training.epochs",
)


def test_tracer_counts_a_member_job():
    problem = generate(TaskSpec("member", n_per_class=10, seed=0))
    tracer, capture = Tracer(), Capture()
    with tracer.installed(), capture.installed():
        run.run_problem(
            problem,
            run.default_train_config("member", epochs=20),
            run.default_beam_config("member"),
        )
    metrics = layer_metrics(tracer, jobs=1)
    for name in PROBED:
        assert metrics[name][0] > 0, name
    assert metrics["grounding.groundings_per_job"][0] == 2
    assert [in_eval for _, in_eval in capture.contexts] == [False, True]
    assert len(capture.scores) == 1
