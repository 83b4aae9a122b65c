"""End-to-end learning on the list-membership task, desk scale.

One job, the member task at seed 1 with the task's defaults, runs the whole
pipeline: generate labeled examples, beam-search candidate clauses, enumerate
ground atoms, train clause weights by gradient descent, extract the program.

Run: python demos/05_learn_member.py   (about half a minute)
"""
from softlog import Job, run_job
from softlog.parser import print_atom

result = run_job(Job("member", seed=1))
problem, rec = result.problem, result.record
print("sample positives:", [print_atom(a, problem.language) for a in problem.pos[:3]])
print("sample negatives:", [print_atom(a, problem.language) for a in problem.neg[:3]])

print(f"\ncandidate clauses: {rec.n_clauses}, ground atoms: {rec.n_atoms}, "
      f"parameters: {rec.param_count}")
print(f"train MSE: {rec.train_mse:.2e}   test MSE: {rec.test_mse:.2e}   "
      f"test AUC: {rec.test_auc:.3f}")
print("\nlearned program:")
for line in rec.program:
    print("  ", line)
print(f"\n({rec.runtime_s:.1f} s total)")
