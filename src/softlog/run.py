"""End-to-end pipeline: split, noise, clause generation, grounding, training,
evaluation, and reproducible run records."""
from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .datasets import (
    NOISE,
    TASKS,
    TaskSpec,
    generate,
    inject_noise,
    problem_hash,
    split,
)
from .grounding import ground_context
from .infer import GAMMA, WEIGHT_MODE, WeightSet
from .logic import (
    AT_LEAST_0, AT_LEAST_1, FRACTION, Clause, ILPProblem, check_settings, check_value,
)
from .parser import parse_clause, print_clause
from .prover import HORIZON, ProofConfig
from .search import BeamConfig, beam_search, check_clause_budget, naive_generate
from .training import TrainConfig, extract_program, make_labels, metrics, predictions, train

log = logging.getLogger(__name__)

# Every this-many epochs one loss value goes into RunRecord.loss_samples.
LOSS_SAMPLE_EVERY = 50
# The metric each sweep axis reports, by its RunRecord field name.
SWEEP_METRICS = {"noise": "test_mse", "nclause": "test_auc"}
# The clause generators of the nclause axis: unscored, or the capped beam.
SWEEP_METHODS = ("naive", "beam")


@dataclass
class RunRecord:
    """Everything needed to describe and reproduce one training run.  The
    test metrics are None when the run holds no atoms out."""

    task: str
    seed: int
    config: dict
    dataset_hash: str
    n_clauses: int
    n_atoms: int
    param_count: int
    loss_samples: list
    train_mse: float
    test_mse: Optional[float]
    train_auc: float
    test_auc: Optional[float]
    runtime_s: float
    program: list
    # softmax confidence of each extracted clause, aligned with ``program``
    confidences: list = field(default_factory=list)

    def __post_init__(self):
        values = {k: getattr(self, k) for k in ("train_mse", "test_mse", "train_auc", "test_auc")}
        values.update((f"confidences[{i}]", c) for i, c in enumerate(self.confidences))
        values.update((f"loss_samples[{i}]", s[1]) for i, s in enumerate(self.loss_samples))
        check_finite(values, "RunRecord.")

    def summary(self) -> dict:
        """The record without its loss samples."""
        return {k: v for k, v in asdict(self).items() if k != "loss_samples"}

    def to_json(self) -> str:
        return json.dumps(asdict(self), allow_nan=False, indent=2, sort_keys=True)


def check_finite(values: dict, prefix: str = "") -> None:
    """Refuse a NaN or infinite value by its name: JSON holds neither, and a
    metric with nothing to score is None."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{prefix}{name} is {value}, not a finite number")


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


@dataclass(frozen=True)
class Job:
    """One run: a task, seed and examples per class as in ``TaskSpec``, field
    overrides of the train and beam configs, and the settings of
    ``run_problem``.  A job checks every setting when it is built, so a bad
    one fails before a problem is drawn.  A job pickles, so a worker process
    can take it as it is."""

    task: str
    seed: int = field(default=0, metadata=AT_LEAST_0)
    n_per_class: int = field(default=50, metadata=AT_LEAST_0)
    train: dict = field(default_factory=dict)
    beam: dict = field(default_factory=dict)
    noise: float = field(default=0.0, metadata=NOISE)
    split_frac: float = field(default=0.7, metadata=FRACTION)
    naive_n: Optional[int] = field(default=None, metadata=AT_LEAST_1)
    clause_cap: Optional[int] = field(default=None, metadata=AT_LEAST_1)

    def __post_init__(self):
        check_settings(self)
        self.configs()
        check_clause_budget(self.naive_n, self.clause_cap)

    def configs(self) -> tuple[TrainConfig, BeamConfig]:
        """The train and beam configs: a task in ``TASKS`` starts from that
        task's, any other name from the configs' own defaults."""
        if self.task in TASKS:
            return (default_train_config(self.task, seed=self.seed, **self.train),
                    default_beam_config(self.task, **self.beam))
        return TrainConfig(seed=self.seed, **self.train), BeamConfig(**self.beam)


def run_job(job: Job, problem: Optional[ILPProblem] = None) -> RunResult:
    """Run ``job`` on ``problem`` (a problem file's), or on the problem its
    task, seed and size draw."""
    tc, bc = job.configs()
    if problem is None:
        problem = generate(TaskSpec(job.task, n_per_class=job.n_per_class, seed=job.seed))
    return run_problem(problem, tc, bc, job.noise, job.split_frac, job.naive_n, job.clause_cap)


def run_problem(
    problem: ILPProblem,
    train_cfg: TrainConfig,
    beam_cfg: BeamConfig,
    noise: float = 0.0,
    split_frac: float = 0.7,
    naive_n: Optional[int] = None,
    clause_cap: Optional[int] = None,
) -> RunResult:
    """Full pipeline on one problem.

    The split and noise injection reuse the training seed; clause scoring,
    grounding, and inference all share the same chaining horizon.  Test atoms
    never influence clause generation or training; evaluation grounds them as
    the only examples.  ``naive_n`` switches to unscored clause generation;
    ``clause_cap`` instead keeps the beam but stops it at the given clause
    budget.
    """
    check_clause_budget(naive_n, clause_cap)
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

    if naive_n is not None:
        clauses = naive_generate(list(problem.initial_clauses), train_problem, naive_n, beam_cfg)
    else:
        clauses = beam_search(
            list(problem.initial_clauses), train_problem, beam_cfg,
            ProofConfig(max_depth=train_cfg.steps), max_clauses=clause_cap,
        )

    ctx = ground_context(train_problem, clauses, train_cfg.steps)
    weights, history = train(train_problem, ctx, train_cfg)
    train_m = _score(
        make_labels(train_problem), ctx, weights, train_cfg.steps, train_cfg.gamma
    )

    test_m = evaluate(
        train_problem, clauses, weights, test_labels, train_cfg.steps, train_cfg.gamma
    )

    program = extract_program(weights, clauses)
    lang = problem.language
    record = RunRecord(
        task=problem.name or "custom",
        seed=seed,
        config={
            **{k: v for k, v in asdict(train_cfg).items() if k != "seed"},
            **asdict(beam_cfg),
            "noise": noise,
            "split_frac": split_frac,
            "naive_n": naive_n,
            "clause_cap": clause_cap,
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
    if log.isEnabledFor(logging.INFO):
        log.info("run %s", json.dumps(record.summary(), allow_nan=False, sort_keys=True))
    return RunResult(record, weights, list(clauses), problem, test_labels)


def evaluate(
    train_problem: ILPProblem,
    clauses: Sequence[Clause],
    weights: WeightSet,
    test_labels: Sequence,
    steps: int,
    gamma: float,
) -> dict:
    """Metrics on held-out atoms, None if none.  They are grounded as the only
    examples: a seed's valuation after ``steps`` rounds depends only on atoms
    the grounding reaches from it, so the training examples are not needed."""
    if not test_labels:
        return {"auc": None, "mse": None}
    pos, neg = ([a for a, y in test_labels if y == k] for k in (1, 0))
    ctx = ground_context(train_problem.with_examples(pos, neg), clauses, steps)
    return _score(test_labels, ctx, weights, steps, gamma)


def _score(labels, ctx, weights, steps, gamma) -> dict:
    """Metrics of the labelled atoms after ``steps`` rounds from the
    grounding ``ctx``'s initial valuation."""
    scores = predictions([a for a, _ in labels], ctx, weights, steps, gamma)
    return metrics(scores, [y for _, y in labels])


# ---------------------------------------------------------------------------
# Weight persistence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFile:
    """The entries of a weight file, which ``evaluate_saved`` reads: each
    entry's range is that of the setting it was saved from."""

    mode: str = field(metadata=WEIGHT_MODE)
    w: list
    clauses: list
    steps: int = field(metadata=HORIZON)
    gamma: float = field(metadata=GAMMA)
    split_frac: float = field(metadata=FRACTION)
    seed: int = field(metadata=AT_LEAST_0)

    def __post_init__(self):
        check_settings(self, "weight file entry {!r}")
        for i, text in enumerate(self.clauses):
            check_value(f"weight file entry 'clauses'[{i}]", text, {}, "str")
        _check_matrix(self.w)


def save_weights(path, result: RunResult) -> None:
    config = result.record.config
    entries = WeightFile(
        mode=result.weights.mode, w=result.weights.w.tolist(),
        clauses=[print_clause(c, result.problem.language) for c in result.clauses],
        steps=config["steps"], gamma=config["gamma"],
        split_frac=config["split_frac"], seed=result.record.seed,
    )
    Path(path).write_text(json.dumps(asdict(entries), allow_nan=False), encoding="utf-8")


def load_weights(path, problem: ILPProblem):
    """The weights, clauses and ``WeightFile`` entries of a weight file.  Any
    error in the file is a ValueError that names it."""
    try:
        return _read_weights(Path(path).read_text(encoding="utf-8"), problem)
    except (ValueError, OverflowError) as e:  # overflow: an int no float holds
        raise ValueError(f"{path}: {e}") from None
    except RecursionError:  # the JSON reader recurses once per nested array or object
        raise ValueError(f"{path}: JSON nested too deep to read") from None


def _finite(number: str) -> float:
    """A JSON float, refusing NaN and infinities: the literals Python's json
    accepts and a number too large for a float."""
    value = float(number)
    if not math.isfinite(value):
        raise ValueError(f"{number} is not a finite number")
    return value


def _read_weights(text: str, problem: ILPProblem):
    payload = json.loads(text, parse_constant=_finite, parse_float=_finite)
    if not isinstance(payload, dict):
        raise ValueError("a weight file holds a JSON object")
    # older files hold "clamp": false; clamped weights would not score as trained
    if payload.get("clamp", False) is not False:
        raise ValueError("weight file entry 'clamp' must be false")
    keys = [f.name for f in fields(WeightFile)]
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValueError(f"weight file has no {missing[0]!r} entry")
    entries = WeightFile(**{key: payload[key] for key in keys})
    weights = WeightSet(entries.mode, np.array(entries.w, dtype=np.float64))
    clauses = []
    for i, text in enumerate(entries.clauses):
        try:
            clauses.append(parse_clause(text, problem.language))
        except ValueError as e:
            raise ValueError(f"weight file entry 'clauses'[{i}]: {e}") from None
    if weights.n_clauses != len(clauses):
        raise ValueError(
            f"{weights.mode} weights of shape {weights.w.shape} do not "
            f"fit the file's {len(clauses)} clauses"
        )
    return weights, clauses, entries


def _check_matrix(w: list) -> None:
    """Every row of a weight file's ``w`` is a list of numbers, as long as the
    first row."""
    for i, row in enumerate(w):
        check_value(f"weight file entry 'w'[{i}]", row, {}, "list")
        if len(row) != len(w[0]):
            raise ValueError(f"weight file entry 'w'[{i}] must hold {len(w[0])} "
                             f"numbers as 'w'[0] does, got {len(row)}")
        for j, cell in enumerate(row):
            check_value(f"weight file entry 'w'[{i}][{j}]", cell, {}, "float")


def evaluate_saved(problem: ILPProblem, weights_path) -> dict:
    """The saved run's ``test_auc`` and ``test_mse``, recomputed on the
    recorded split.  Label noise flips only training examples, which
    ``evaluate`` does not read."""
    weights, clauses, entries = load_weights(weights_path, problem)
    train_problem, test_labels = split(problem, entries.split_frac, entries.seed)
    m = evaluate(train_problem, clauses, weights, test_labels, entries.steps, entries.gamma)
    out = {"test_auc": m["auc"], "test_mse": m["mse"]}
    check_finite(out)
    return out


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
    check_value("axis", axis, {"choices": tuple(SWEEP_METRICS)}, "str")
    check_value("method", method, {"choices": SWEEP_METHODS}, "str")
    if not values:
        raise ValueError("at least one value is required")
    if not seeds:
        raise ValueError("at least one seed is required")
    if axis == "noise":
        key, cast = "noise", float
    else:
        key, cast = ("naive_n" if method == "naive" else "clause_cap"), int
        for value in values:
            if not float(value).is_integer():
                raise ValueError(f"nclause values must be whole numbers, got {value}")
    # every cell's job is built, and so checked, before any runs
    cells = [(value, Job(task, seed, n_per_class, train=config_overrides, **{key: cast(value)}))
             for value in values for seed in seeds]
    rows = [(float(value), job.seed, getattr(run_job(job).record, SWEEP_METRICS[axis]))
            for value, job in cells]
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows
