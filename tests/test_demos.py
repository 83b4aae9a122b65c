"""Demos 01-05 run to completion, each as its own process from the
repository root with ``PYTHONPATH=src``; together they take a few seconds.
``06_noise_robustness.py`` is left out: its 18 training runs (about 20 s)
repeat the noise sweep of ``test_acceptance.py``'s criterion 5, which
asserts the same trend on member and subtree.
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
# a line a demo must print: demo 01's substitution, and demo 04's check of
# the tensor inference against the prover
EXPECTED = {
    "01_terms_and_unification.py": "substitution: x = a, y = b, z = [a]",
    "04_differentiable_inference.py": "agree: True",
}


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
