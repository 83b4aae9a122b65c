"""Label-noise robustness: flip a fraction of training labels, watch the test
error respond.  Desk-scale version of the noise sweep (fewer seeds, three
noise levels; the CLI `softlog sweep --axis noise` runs the full grid).

Run: python demos/06_noise_robustness.py   (about 20 s on 2 vCPUs)
"""
import numpy as np

from softlog import TaskSpec, generate
from softlog.run import default_beam_config, default_train_config, run_problem

SEEDS = (0, 1, 2)

for task in ("member", "subtree"):
    print(f"== {task} ==")
    for noise in (0.0, 0.1, 0.3):
        mses = []
        for seed in SEEDS:
            problem = generate(TaskSpec(task, n_per_class=50, seed=seed))
            res = run_problem(
                problem,
                default_train_config(task, seed=seed),
                default_beam_config(task),
                noise=noise,
            )
            mses.append(res.record.test_mse)
        print(f"  {int(noise*100):2d}% mislabeled -> mean test MSE {np.mean(mses):.4f}")
print("\nthe error grows with the noise level, but stays small at 10%")
