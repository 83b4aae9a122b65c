"""End-to-end pipeline: split, noise, clause generation, grounding, training,
evaluation, and reproducible run records."""
from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .datasets import (
    TASKS,
    TaskSpec,
    generate,
    inject_noise,
    problem_hash,
    split,
)
from .grounding import convert_background, ground_context
from .infer import WeightSet
from .logic import Clause
from .parser import parse_clause, print_clause
from .problem import ILPProblem
from .prover import ProofConfig
from .refine import RefinementConfig
from .search import BeamConfig, beam_search, naive_generate
from .training import TrainConfig, extract_program, make_labels, metrics, predictions, train

log = logging.getLogger(__name__)

# Every this-many epochs one loss value goes into RunRecord.loss_samples.
LOSS_SAMPLE_EVERY = 50
# The entries of a weight file that evaluate_saved reads and the JSON types
# each may hold, compared exactly so that a bool is not an int.
_NUMBER = (int, float)
WEIGHT_KEYS = {
    "mode": (str,), "w": (list,), "clauses": (list,), "steps": (int,),
    "gamma": _NUMBER, "split_frac": _NUMBER, "noise": _NUMBER, "seed": (int,),
    "clamp": (bool,),
}
# The metric each sweep axis reports, by its RunRecord field name.
SWEEP_METRICS = {"noise": "test_mse", "nclause": "test_auc"}


def strict_json(fields: dict, **kwargs) -> str:
    """RFC 8259 JSON, which has no NaN: a NaN field (a metric with no atoms to
    score) is written as null, and a non-finite float anywhere else raises."""
    fields = {k: None if isinstance(v, float) and math.isnan(v) else v
              for k, v in fields.items()}
    return json.dumps(fields, allow_nan=False, **kwargs)


@dataclass
class RunRecord:
    """Everything needed to describe and reproduce one training run."""

    task: str
    seed: int
    config: dict
    dataset_hash: str
    n_clauses: int
    n_atoms: int
    param_count: int
    loss_samples: list
    train_mse: float
    test_mse: float
    train_auc: float
    test_auc: float
    runtime_s: float
    program: list
    # softmax confidence of each extracted clause, aligned with ``program``
    confidences: list = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "task": self.task,
            "seed": self.seed,
            "m": self.config.get("m"),
            "T": self.config.get("steps"),
            "n_clauses": self.n_clauses,
            "n_atoms": self.n_atoms,
            "params": self.param_count,
            "train_mse": self.train_mse,
            "test_mse": self.test_mse,
            "auc": self.test_auc,
            "runtime_s": self.runtime_s,
            "program_text": self.program,
        }

    def to_json(self) -> str:
        return strict_json(asdict(self), indent=2, sort_keys=True)


@dataclass
class RunResult:
    record: RunRecord
    weights: WeightSet
    clauses: list
    problem: ILPProblem
    test_labels: list


def default_train_config(task: str, seed: int = 0, **overrides) -> TrainConfig:
    td = TASKS[task]
    base = dict(m=td.m, steps=td.steps, seed=seed)
    base.update(overrides)
    return TrainConfig(**base)


def default_beam_config(task: str, **overrides) -> BeamConfig:
    td = TASKS[task]
    base = dict(beam_size=td.beam_size, beam_steps=td.beam_steps)
    base.update(overrides)
    return BeamConfig(**base)


def run_problem(
    problem: ILPProblem,
    train_cfg: TrainConfig,
    beam_cfg: BeamConfig,
    refine_cfg: RefinementConfig = RefinementConfig(),
    noise: float = 0.0,
    split_frac: float = 0.7,
    naive_n: Optional[int] = None,
    clause_cap: Optional[int] = None,
    proof_depth: Optional[int] = None,
) -> RunResult:
    """Full pipeline on one problem.

    The split and noise injection reuse the training seed; clause scoring,
    grounding, and inference all share the same chaining horizon.  Test atoms
    never influence clause generation or training; evaluation grounds them as
    the only examples.  ``naive_n`` switches to unscored clause generation;
    ``clause_cap`` instead keeps the beam but stops it at the given clause
    budget.
    """
    if naive_n is not None and clause_cap is not None:
        raise ValueError("give naive_n (no beam) or clause_cap (a capped beam), not both")
    t0 = time.perf_counter()
    seed = train_cfg.seed
    train_problem, test_labels = split(problem, split_frac, seed)
    train_problem = inject_noise(train_problem, noise, seed)
    for cls, examples in (("positive", train_problem.pos), ("negative", train_problem.neg)):
        if not examples:
            raise ValueError(
                f"the training split holds no {cls} example (split fraction "
                f"{split_frac}, noise {noise}); training needs both classes"
            )

    # clause scoring defaults to the same horizon the differentiable
    # inference uses
    proof_cfg = ProofConfig(
        max_depth=proof_depth if proof_depth is not None else train_cfg.steps
    )
    if naive_n is not None:
        clauses = naive_generate(
            list(problem.initial_clauses), train_problem, naive_n, refine_cfg
        )
    else:
        clauses = beam_search(
            list(problem.initial_clauses), train_problem, beam_cfg, refine_cfg,
            proof_cfg, max_clauses=clause_cap,
        )

    ctx = ground_context(train_problem, clauses, train_cfg.steps)
    weights, history = train(train_problem, ctx, train_cfg)
    train_m = _score(
        train_problem, make_labels(train_problem), ctx, weights, train_cfg.steps,
        train_cfg.gamma, train_cfg.clamp,
    )

    test_m = evaluate(
        train_problem, clauses, weights, test_labels, train_cfg.steps,
        train_cfg.gamma, clamp=train_cfg.clamp,
    )

    program = extract_program(weights, clauses)
    lang = problem.language
    record = RunRecord(
        task=problem.name or "custom",
        seed=seed,
        config={
            **{k: v for k, v in asdict(train_cfg).items() if k != "seed"},
            **asdict(beam_cfg),
            **asdict(refine_cfg),
            "noise": noise,
            "split_frac": split_frac,
            "naive_n": naive_n,
            "clause_cap": clause_cap,
            "proof_depth": proof_cfg.max_depth,
        },
        dataset_hash=problem_hash(problem),
        n_clauses=len(clauses),
        n_atoms=len(ctx),
        param_count=weights.param_count,
        loss_samples=[
            [i, history[i]]
            for i in range(0, len(history), LOSS_SAMPLE_EVERY)
        ]
        + ([[len(history) - 1, history[-1]]] if history else []),
        train_mse=train_m["mse"],
        test_mse=test_m["mse"],
        train_auc=train_m["auc"],
        test_auc=test_m["auc"],
        runtime_s=time.perf_counter() - t0,
        program=[print_clause(c, lang) for c in program],
        confidences=list(program.confidences),
    )
    log.info("run %s", strict_json(record.summary()))
    return RunResult(record, weights, list(clauses), problem, test_labels)


def evaluate(
    train_problem: ILPProblem,
    clauses: Sequence[Clause],
    weights: WeightSet,
    test_labels: Sequence,
    steps: int,
    gamma: float,
    clamp: bool = False,
) -> dict:
    """Metrics on held-out atoms, NaN if none.  They are grounded as the only
    examples: a seed's valuation after ``steps`` rounds depends only on atoms
    the grounding reaches from it, so the training examples are not needed."""
    if not test_labels:
        return {"auc": float("nan"), "mse": float("nan")}
    pos, neg = ([a for a, y in test_labels if y == k] for k in (1, 0))
    ctx = ground_context(train_problem.with_examples(pos, neg), clauses, steps)
    return _score(train_problem, test_labels, ctx, weights, steps, gamma, clamp)


def _score(problem, labels, ctx, weights, steps, gamma, clamp) -> dict:
    """Metrics of the labelled atoms after ``steps`` rounds from the
    problem's background, on the grounding ``ctx``."""
    v0 = convert_background(problem.background, ctx.atoms)
    scores = predictions(
        [a for a, _ in labels], ctx, v0, weights, steps, gamma, clamp=clamp
    )
    return metrics(scores, [y for _, y in labels])


# ---------------------------------------------------------------------------
# Weight persistence
# ---------------------------------------------------------------------------

def save_weights(path, result: RunResult) -> None:
    lang = result.problem.language
    payload = {
        "mode": result.weights.mode,
        "w": result.weights.w.tolist(),
        "clauses": [print_clause(c, lang) for c in result.clauses],
        "steps": result.record.config["steps"],
        "gamma": result.record.config["gamma"],
        "clamp": result.record.config["clamp"],
        "split_frac": result.record.config["split_frac"],
        "noise": result.record.config["noise"],
        "seed": result.record.seed,
    }
    Path(path).write_text(json.dumps(payload, allow_nan=False), encoding="utf-8")


def load_weights(path, problem: ILPProblem):
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: a weight file holds a JSON object")
    # files written before the clamp was saved come from unclamped runs
    payload.setdefault("clamp", False)
    for key, types in WEIGHT_KEYS.items():
        if key not in payload:
            raise ValueError(f"{path}: weight file has no {key!r} entry")
        value = payload[key]
        if type(value) not in types:
            want = " or ".join(t.__name__ for t in types)
            raise ValueError(
                f"{path}: weight file entry {key!r} must be {want}, got {value!r:.40}"
            )
    if not all(type(t) is str for t in payload["clauses"]):
        raise ValueError(f"{path}: weight file entry 'clauses' must hold strings")
    try:  # seed, steps and gamma obey the saved run's TrainConfig rules
        TrainConfig(steps=payload["steps"], gamma=payload["gamma"], seed=payload["seed"])
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    weights = WeightSet(payload["mode"], np.array(payload["w"], dtype=np.float64))
    clauses = [parse_clause(t, problem.language) for t in payload["clauses"]]
    if weights.n_clauses != len(clauses):
        raise ValueError(
            f"{path}: {weights.mode} weights of shape {weights.w.shape} do not "
            f"fit the file's {len(clauses)} clauses"
        )
    return weights, clauses, payload


def evaluate_saved(problem: ILPProblem, weights_path) -> dict:
    """Recreate the recorded split and recompute held-out metrics."""
    weights, clauses, payload = load_weights(weights_path, problem)
    train_problem, test_labels = split(problem, payload["split_frac"], payload["seed"])
    train_problem = inject_noise(train_problem, payload["noise"], payload["seed"])
    return evaluate(
        train_problem, clauses, weights, test_labels, payload["steps"], payload["gamma"],
        clamp=payload["clamp"],
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def sweep(
    task: str,
    axis: str,
    values: Sequence[float],
    seeds: Sequence[int],
    n_per_class: int = 50,
    method: str = "naive",
    **config_overrides,
) -> list[tuple[float, int, float]]:
    """Grid of runs: noise sweeps report test MSE, clause-count sweeps report
    test AUC.  On the clause-count axis ``method`` selects unscored generation
    ("naive") or the budget-capped beam ("beam").  Each run is seeded and
    shares nothing with the others; rows come back sorted by (axis value, seed)."""
    if axis not in SWEEP_METRICS:
        raise ValueError(f"axis must be {' or '.join(map(repr, SWEEP_METRICS))}")
    if method not in ("naive", "beam"):
        raise ValueError("method must be 'naive' or 'beam'")
    if not seeds:
        raise ValueError("at least one seed is required")
    if axis == "noise":
        key, cast = "noise", float
    else:
        key, cast = ("naive_n" if method == "naive" else "clause_cap"), int
    rows = []
    for seed in seeds:
        problem = generate(TaskSpec(task, n_per_class=n_per_class, seed=seed))
        tc = default_train_config(task, seed=seed, **config_overrides)
        bc = default_beam_config(task)
        for value in values:
            record = run_problem(problem, tc, bc, **{key: cast(value)}).record
            rows.append((float(value), seed, getattr(record, SWEEP_METRICS[axis])))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows
