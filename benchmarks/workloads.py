"""The benchmark's three workloads: what each sets up, what one job is, and
how each job's output is checked.

Learning workloads take each task through ``run.run_problem`` at the task's
own defaults.  Their problem instances are fixed (generated at data seed 0,
split and trained with seed 0, as in ROADMAP's baseline table): one learning
job's cost follows the examples drawn, and with room for a single job per
task in a run, seed-drawn instances would spread the run's time by a third
(see README).  The query workload draws its query atoms from ``--seed``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from softlog import datasets, run
from softlog.datasets import ORACLE_DEPTH, TASKS, TaskSpec
from softlog.infer import WeightSet
from softlog.logic import canonical
from softlog.parser import parse_clause
from softlog.training import TrainConfig, make_labels

import checks

HERE = Path(__file__).resolve().parent
CANDIDATES_FILE = HERE / "candidates.json"

EXAMPLES_PER_CLASS = 50
LEARN_DATA_SEED = 0
LEARN_RUN_SEED = 0
SPLIT_FRAC = 0.7  # run_problem's default
# Query atoms per class and task (plus has only 54 true atoms within its
# default size).  They are generated at data seed QUERY_SEED_BASE + seed, so
# no query set repeats the seed-0 training examples.
QUERY_PER_CLASS = 50
QUERY_SEED_BASE = 1000
QUERY_TASKS = ("member", "delete", "append", "plus", "subtree")


def reference_program(task: str):
    return TASKS[task].ground_truth


@dataclass
class Outcome:
    """One job's result plus what the capture hooks saw while it ran."""

    task: str
    result: object = None  # RunResult (learning) or metrics dict (query)
    error: Optional[str] = None
    contexts: list = field(default_factory=list)
    scores: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Learning workloads
# ---------------------------------------------------------------------------

@dataclass
class LearnInput:
    task: str
    problem: object


class LearnWorkload:
    def __init__(self, tasks):
        self.tasks = tuple(tasks)

    def setup(self, seed: int) -> list[LearnInput]:
        return [
            LearnInput(
                t,
                datasets.generate(
                    TaskSpec(t, n_per_class=EXAMPLES_PER_CLASS, seed=LEARN_DATA_SEED)
                ),
            )
            for t in self.tasks
        ]

    def setup_problems(self, inputs: list[LearnInput]) -> list[str]:
        return [
            f"{inp.task}: {m}"
            for inp in inputs
            for m in checks.label_mismatches(
                make_labels(inp.problem), inp.problem.background,
                reference_program(inp.task), ORACLE_DEPTH,
            )
        ]

    def run_job(self, inp: LearnInput):
        return run.run_problem(
            inp.problem,
            run.default_train_config(inp.task, seed=LEARN_RUN_SEED),
            run.default_beam_config(inp.task),
        )

    def check(self, inp: LearnInput, out: Outcome) -> tuple[list[str], dict]:
        """Checks on one finished learning job; also returns the figures
        worth keeping in the results file."""
        res = out.result
        lang = inp.problem.language
        cfg = res.record.config
        bg = inp.problem.background
        bad = []
        train_ctx = [ctx for ctx, in_eval in out.contexts if not in_eval]
        if len(train_ctx) != 1:
            return [f"{inp.task}: {len(train_ctx)} training groundings seen"], {}
        ctx = train_ctx[0]
        program = [parse_clause(t, lang) for t in res.record.program]
        bad += checks.tensor_prover_mismatches(
            ctx, bg, checks.argmax_weights(res.weights), program,
            ctx.atoms, cfg["steps"], cfg["gamma"],
        )
        acc = checks.heldout_accuracy(program, bg, res.test_labels, cfg["steps"])
        if acc < checks.ACCURACY_FLOOR:
            bad.append(f"held-out accuracy {acc:.3f} < {checks.ACCURACY_FLOOR}")
        if len(out.scores) != 1:
            bad.append(f"{len(out.scores)} held-out scorings seen")
        else:
            bad += checks.metric_mismatches(
                out.scores[0],
                [y for _, y in res.test_labels],
                {"mse": res.record.test_mse, "auc": res.record.test_auc},
            )
        return [f"{inp.task}: {m}" for m in bad], {
            "heldout_accuracy": acc,
            "program": res.record.program,
            "n_clauses": res.record.n_clauses,
            "n_atoms": res.record.n_atoms,
        }

    def same(self, first: Outcome, other: Outcome) -> list[str]:
        return [
            f"{first.task}: {d}"
            for d in checks.record_differences(first.result.record, other.result.record)
        ]


# ---------------------------------------------------------------------------
# Query workload
# ---------------------------------------------------------------------------

@dataclass
class QueryInput:
    task: str
    train_problem: object
    clauses: list
    weights: WeightSet
    labels: list


def load_candidates() -> dict:
    return json.loads(CANDIDATES_FILE.read_text(encoding="utf-8"))


def model_problem(task: str):
    """The seed-0 training split the committed candidate sets were searched on."""
    problem = datasets.generate(
        TaskSpec(task, n_per_class=EXAMPLES_PER_CLASS, seed=LEARN_DATA_SEED)
    )
    train_problem, _ = datasets.split(problem, SPLIT_FRAC, LEARN_RUN_SEED)
    return train_problem


def one_hot_reference(task: str, clauses) -> WeightSet:
    """Weights selecting the task's reference program, one clause per slot."""
    keys = [canonical(c) for c in clauses]
    slots = [keys.index(canonical(c)) for c in reference_program(task)]
    return WeightSet.one_hot(slots, len(clauses))


class QueryWorkload:
    tasks = QUERY_TASKS

    def setup(self, seed: int) -> list[QueryInput]:
        texts = load_candidates()
        inputs = []
        for t in self.tasks:
            lang = TASKS[t].language
            clauses = [parse_clause(c, lang) for c in texts[t]]
            queries = datasets.generate(
                TaskSpec(t, n_per_class=QUERY_PER_CLASS, seed=QUERY_SEED_BASE + seed)
            )
            inputs.append(
                QueryInput(
                    t, model_problem(t), clauses, one_hot_reference(t, clauses),
                    make_labels(queries),
                )
            )
        return inputs

    def setup_problems(self, inputs: list[QueryInput]) -> list[str]:
        return [
            f"{inp.task}: {m}"
            for inp in inputs
            for m in checks.label_mismatches(
                make_labels(inp.train_problem) + inp.labels, inp.train_problem.background,
                reference_program(inp.task), ORACLE_DEPTH,
            )
        ]

    def run_job(self, inp: QueryInput):
        return run.evaluate(
            inp.train_problem, inp.clauses, inp.weights, inp.labels,
            TASKS[inp.task].steps, TrainConfig().gamma,
        )

    def check(self, inp: QueryInput, out: Outcome) -> tuple[list[str], dict]:
        if len(out.scores) != 1:
            return [f"{inp.task}: {len(out.scores)} scorings seen"], {}
        scores = out.scores[0]
        atoms = [a for a, _ in inp.labels]
        bad = checks.query_mismatches(
            atoms, scores, reference_program(inp.task),
            inp.train_problem.background, TASKS[inp.task].steps,
        )
        bad += checks.metric_mismatches(scores, [y for _, y in inp.labels], out.result)
        ctx = [ctx for ctx, _ in out.contexts]
        return [f"{inp.task}: {m}" for m in bad], {
            "queries": len(atoms),
            "n_clauses": len(inp.clauses),
            "n_atoms": len(ctx[0]) if ctx else None,
            "metrics": out.result,
        }

    def same(self, first: Outcome, other: Outcome) -> list[str]:
        if first.result != other.result:
            return [f"{first.task}: metrics {first.result} != {other.result}"]
        return []


WORKLOADS = {
    "learn-lists": LearnWorkload(("member", "delete", "append")),
    "learn-nat-tree": LearnWorkload(("plus", "subtree")),
    "query": QueryWorkload(),
}
