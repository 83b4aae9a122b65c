"""Demos 01-05 run to completion, each as its own process from the
repository root with ``PYTHONPATH=src``; together they take a few seconds.  ``06_noise_robustness.py`` is left out because its noise sweep
takes about two minutes.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = (
    "01_terms_and_unification.py",
    "02_refinement_and_beam.py",
    "03_grounding_and_tensor.py",
    "04_differentiable_inference.py",
    "05_learn_member.py",
)
# a line a demo must print: demo 04 checks the tensor inference against the
# prover
EXPECTED = {"04_differentiable_inference.py": "agree: True"}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if demo in EXPECTED:
        assert EXPECTED[demo] in proc.stdout.splitlines()
