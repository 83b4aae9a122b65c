"""Rebuild candidates.json, the query workload's fixed candidate clause sets.

For each task this runs the beam search ``run_problem`` runs on the seed-0
training split (task defaults, clause scoring at depth T), then appends any
reference clause the beam did not return, so one-hot weights can select the
reference program.  Run from the repository root:

    python3 benchmarks/make_candidates.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from softlog import run  # noqa: E402
from softlog.datasets import TASKS  # noqa: E402
from softlog.logic import canonical  # noqa: E402
from softlog.parser import print_clause  # noqa: E402
from softlog.prover import ProofConfig  # noqa: E402
from softlog.search import beam_search  # noqa: E402

import workloads  # noqa: E402


def candidates(task: str) -> list[str]:
    td = TASKS[task]
    train_problem = workloads.model_problem(task)
    clauses = beam_search(
        list(td.initial_clauses), train_problem, run.default_beam_config(task),
        proof_cfg=ProofConfig(max_depth=td.steps),
    )
    keys = {canonical(c) for c in clauses}
    clauses += [c for c in td.ground_truth if canonical(c) not in keys]
    return [print_clause(c, td.language) for c in clauses]


def main() -> None:
    out = {t: candidates(t) for t in workloads.QUERY_TASKS}
    workloads.CANDIDATES_FILE.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for t, cs in out.items():
        print(f"{t}: {len(cs)} clauses")


if __name__ == "__main__":
    main()
