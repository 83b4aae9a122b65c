"""softlog benchmark: one workload, one process, one JSON result line.

    python3 benchmarks/run.py --workload learn-lists --seed 0 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/``.  With
``--trace 0`` the run times set-up, then repeats whole passes over the
workload's jobs until ``--seconds`` have gone by (at least one pass), and
reports the end-to-end metrics.  With ``--trace 1`` it sets up under the
tracer, makes one untraced and one traced pass, checks that both give
identical outputs, and reports the per-layer metrics.  The last line of
standard output is the result object; a copy with more detail (and the spans
of a traced run) goes to ``benchmarks/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# BLAS threads for numpy.  The tensors are small (tens of thousands of
# elements), so extra threads only add scheduling noise; 1 <= nproc.
BLAS_THREADS = "1"
# Set-up is repeated this many times per run and the median is reported.
SETUP_ROUNDS = 5
# the keys of workloads.WORKLOADS, which can only be imported once the
# environment is pinned
WORKLOAD_NAMES = ("learn-lists", "learn-nat-tree", "query")

PINNED_ENV = {
    # set iteration order in the prover, and so the call counts, follows
    # string hashing
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_environment() -> None:
    """Hash seed and BLAS threads are read at interpreter and numpy start-up,
    so when either is not already pinned the process re-executes itself
    (same process id, no child) with them set."""
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])


def import_library() -> float:
    """Import softlog from this checkout's ``src/``; returns the seconds the
    import took.  Exits with code 2 when the sources are missing."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    t0 = perf_counter()
    try:
        import softlog  # noqa: F401
        import workloads  # noqa: F401
    except ImportError as e:
        print(f"benchmark: cannot import softlog from {src}: {e}", file=sys.stderr)
        raise SystemExit(2)
    import_s = perf_counter() - t0
    if not Path(softlog.__file__).resolve().is_relative_to(src):
        print(f"benchmark: softlog imported from {softlog.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return import_s


def run_pass(workload, inputs, capture, tracer=None):
    """One pass over the workload's jobs; returns (outcomes, seconds)."""
    from workloads import Outcome

    outcomes = []
    t0 = perf_counter()
    for inp in inputs:
        capture.reset()
        with tracer.region("job") if tracer else ExitStack():
            out = Outcome(inp.task)
            try:
                out.result = workload.run_job(inp)
            except Exception:  # a failed operation is counted, not fatal
                out.error = traceback.format_exc()
        out.contexts = list(capture.contexts)
        out.scores = list(capture.scores)
        outcomes.append(out)
    return outcomes, perf_counter() - t0


def timed_setup(workload, seed, tracer=None):
    """SETUP_ROUNDS set-ups; returns the last inputs and each round's time."""
    times = []
    for _ in range(SETUP_ROUNDS):
        t0 = perf_counter()
        with tracer.region("setup") if tracer else ExitStack():
            inputs = workload.setup(seed)
        times.append(perf_counter() - t0)
    return inputs, times


def check_passes(workload, inputs, passes):
    """Full checks on the first pass; every later pass must repeat it."""
    problems, details = [], {}
    first = passes[0]
    for inp, out in zip(inputs, first):
        if out.error is None:
            bad, info = workload.check(inp, out)
            problems += bad
            details[inp.task] = info
    for other in passes[1:]:
        for a, b in zip(first, other):
            if (a.error is None) != (b.error is None):
                problems.append(f"{a.task}: failed in one pass only")
            elif a.error is None:
                problems += workload.same(a, b)
    return problems, details


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    import_s = import_library()

    from tracer import Capture, Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    capture = Capture()
    tracer = Tracer() if args.trace else None
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    with ExitStack() as stack:
        if tracer:
            stack.enter_context(tracer.installed())
        inputs, setup_times = timed_setup(workload, args.seed, tracer)
    problems = workload.setup_problems(inputs)

    passes, pass_times = [], []
    t_start = perf_counter()
    with capture.installed():
        while True:
            outcomes, secs = run_pass(workload, inputs, capture)
            if passes:  # only the first pass's groundings are checked
                for o in outcomes:
                    o.contexts = []
            passes.append(outcomes)
            pass_times.append(secs)
            if args.trace or perf_counter() - t_start >= args.seconds:
                break
    if tracer:
        with ExitStack() as stack:
            stack.enter_context(tracer.installed())
            stack.enter_context(capture.installed())
            tracer.counts.clear()
            outcomes, traced_s = run_pass(workload, inputs, capture, tracer)
        passes.append(outcomes)
        report["traced_pass_s"] = traced_s

    bad, details = check_passes(workload, inputs, passes)
    problems += bad
    attempted = sum(len(p) for p in passes)
    failed = sum(o.error is not None for p in passes for o in p)
    for p in passes:
        for o in p:
            if o.error:
                print(f"benchmark: {o.task} failed:\n{o.error}", file=sys.stderr)

    if tracer:
        metrics = layer_metrics(tracer, len(inputs))
    else:
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "pass_s": (statistics.median(pass_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report.update(
        result=result, problems=problems, jobs=details, import_s=import_s,
        setup_times=setup_times, pass_times=pass_times,
    )
    if tracer:
        report["spans"] = tracer.spans
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(report), encoding="utf-8")
    for p in problems:
        print(f"benchmark: check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
