"""Label-noise robustness: flip a fraction of training labels, watch the test
error respond.  Desk-scale version of the noise sweep (fewer seeds, three
noise levels; the CLI `softlog sweep --axis noise` runs the full grid).  Each
cell is one job at the task's defaults.

Run: python demos/06_noise_robustness.py   (about 12 s on 2 vCPUs)
"""
import numpy as np

from softlog import Job, run_job

SEEDS = (0, 1, 2)

for task in ("member", "subtree"):
    print(f"== {task} ==")
    for noise in (0.0, 0.1, 0.3):
        mses = [run_job(Job(task, seed, noise=noise)).record.test_mse for seed in SEEDS]
        print(f"  {int(noise*100):2d}% mislabeled -> mean test MSE {np.mean(mses):.4f}")
print("\nthe error grows with the noise level, but stays small at 10%")
