"""Command-line entry points: gen, train, eval, sweep.

Exit codes: 0 success, 2 configuration error, 3 diverged training, 141
standard output closed by its reader (128 + SIGPIPE, as a shell reports it).
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

from .datasets import TASKS, TaskSpec, generate, load_problem, save_problem
from .infer import WEIGHT_MODE
from .run import SWEEP_METHODS, SWEEP_METRICS, Job, evaluate_saved, run_job, save_weights, sweep
from .training import TrainingDiverged

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_BROKEN_PIPE = 141


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, help="program size (slots)")
    p.add_argument("--T", type=int, dest="steps", help="forward-chaining rounds")
    p.add_argument("--gamma", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-frac", type=float)
    p.add_argument("--beam-size", type=int)
    p.add_argument("--beam-steps", type=int)
    p.add_argument("--n-body", type=int)
    p.add_argument("--n-nest", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float)
    p.add_argument("--split-frac", type=float)
    p.add_argument("--weight-mode", choices=WEIGHT_MODE["choices"])
    p.add_argument(
        "--naive-gen",
        type=int,
        default=None,
        metavar="N_CLAUSE",
        help="replace beam search with unscored breadth-first generation",
    )


def _resolve_problem(args) -> tuple:
    """The problem file's problem (None with --task alone) and the task name."""
    if args.problem is not None:
        problem = load_problem(args.problem)
        return problem, args.task or problem.name or "custom"
    if not args.task:
        raise ValueError("provide a problem file or --task")
    return None, args.task


def _given(args, *keys) -> dict:
    """The flags among ``keys`` that were set; the others keep the defaults
    of the config or function they are passed to."""
    return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}


def cmd_gen(args) -> int:
    spec = TaskSpec(args.task, n_per_class=args.n, seed=args.seed)
    problem = generate(spec)
    save_problem(problem, args.out)
    print(f"wrote {args.out}: |pos|={len(problem.pos)} |neg|={len(problem.neg)}")
    return EXIT_OK


def cmd_train(args) -> int:
    problem, task = _resolve_problem(args)
    job = Job(
        task,
        seed=args.seed,
        n_per_class=args.n,
        train=_given(args, "m", "steps", "gamma", "lr", "epochs", "batch_frac", "weight_mode"),
        beam=_given(args, "beam_size", "beam_steps", "n_body", "n_nest"),
        naive_n=args.naive_gen,
        **_given(args, "noise", "split_frac"),
    )
    result = run_job(job, problem)
    rec = result.record
    print(json.dumps(rec.summary(), allow_nan=False, indent=2, sort_keys=True))
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "run.json").write_text(rec.to_json(), encoding="utf-8")
        save_weights(outdir / "weights.json", result)
        print(f"wrote {outdir}/run.json and {outdir}/weights.json")
    return EXIT_OK


def cmd_eval(args) -> int:
    problem = load_problem(args.problem)
    print(json.dumps(evaluate_saved(problem, args.weights), allow_nan=False, indent=2,
                     sort_keys=True))
    return EXIT_OK


def _entries(flag: str, text: str, read) -> list:
    """The comma-separated entries of a flag's value, each read by ``read``."""
    try:
        return [read(entry) for entry in text.split(",") if entry.strip()]
    except ValueError as e:  # names the entry
        raise ValueError(f"{flag}: {e}") from None


def cmd_sweep(args) -> int:
    seeds = _entries("--seeds", args.seeds, int)
    if args.values is not None:
        values = _entries("--values", args.values, float)
    elif args.axis == "noise":
        values = [round(0.05 * i, 2) for i in range(11)]
    else:
        values = [10, 20, 30, 40]
    rows = sweep(args.task, args.axis, values, seeds, n_per_class=args.n,
                 method=args.method)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([args.axis, "seed", SWEEP_METRICS[args.axis]])
        writer.writerows(rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="softlog",
        description="Learn logic programs from noisy structured examples.",
    )
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a benchmark problem file")
    g.add_argument("--task", required=True, choices=sorted(TASKS))
    g.add_argument("--n", type=int, default=50, help="examples per class")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen)

    t = sub.add_parser("train", help="run the full learning pipeline")
    t.add_argument("problem", nargs="?", help="problem file (or use --task)")
    t.add_argument("--task", choices=sorted(TASKS))
    t.add_argument("--n", type=int, default=50, help="examples per class with --task")
    t.add_argument("--out", help="directory for run.json / weights.json")
    _add_train_flags(t)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="re-evaluate saved weights on a problem")
    e.add_argument("problem")
    e.add_argument("--weights", required=True)
    e.set_defaults(fn=cmd_eval)

    s = sub.add_parser("sweep", help="grid of runs over noise or clause count")
    s.add_argument("--task", required=True, choices=sorted(TASKS))
    s.add_argument("--axis", required=True, choices=list(SWEEP_METRICS))
    s.add_argument("--values", help="comma-separated axis values")
    s.add_argument("--seeds", default="0,1,2,3,4")
    s.add_argument("--n", type=int, default=50)
    s.add_argument(
        "--method",
        choices=SWEEP_METHODS,
        default="naive",
        help="clause generator for the nclause axis",
    )
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(name)s %(message)s",
        stream=sys.stderr,
    )
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except BrokenPipeError:  # the reader went away (`softlog train ... | head`)
        # what stdout still buffers goes to devnull: the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as e:  # OSError: a path the user gave
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
