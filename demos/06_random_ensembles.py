"""Random Gaussian ensembles and the sampling oracles.

Every trial draws a Gaussian matrix, classifies its row span, and
records kappa, the Grassmann condition, and the Renegar condition.  The
sandwich C(W) <= R(A) <= kappa(A) C(W) must hold in every record, and
ill-posed draws have probability zero.
"""

import math

import numpy as np

from coniccond import (
    ExperimentConfig,
    Orthant,
    cone_subspace_angle,
    oracle_cone_angle,
    oracle_perturbation_bracket,
    run_experiment,
    subspace_from_rowspan,
)

cfg = ExperimentConfig(n=6, m=3, trials=200, seed=2024)
records = run_experiment(cfg)

statuses = {}
for record in records:
    statuses[record.status] = statuses.get(record.status, 0) + 1
print("status counts:", statuses)
print("sandwich failures:", sum(1 for r in records if not r.sandwich_ok))

log_kappa = np.array([math.log(r.kappa) for r in records])
log_grassmann = np.array([math.log(r.grassmann) for r in records])
log_renegar = np.array([math.log(r.renegar.bounds()[1]) for r in records])
print(f"mean log kappa     = {log_kappa.mean():.4f}")
print(f"mean log grassmann = {log_grassmann.mean():.4f}")
print(f"mean log renegar   = {log_renegar.mean():.4f} "
      f"<= {log_kappa.mean() + log_grassmann.mean():.4f} (sum of the others)")

# The sampling oracle can only overestimate the exact cone angle; the gap
# closes as the sample count grows.
w = subspace_from_rowspan([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
exact = cone_subspace_angle(Orthant(4), w).angle
print(f"\nexact angle {exact:.6f}")
for samples in (10_000, 100_000, 1_000_000):
    estimate = oracle_cone_angle(Orthant(4), w, samples=samples, seed=1)
    print(f"  sampled with {samples:>9} points: {estimate:.6f} (gap {estimate - exact:.2e})")

# The perturbation bracket searches for small feasibility-flipping
# perturbations; for a balanced dual-feasible matrix it recovers the
# exact distance because the flip witness is in the candidate pool.
b = np.array([[1.0, 1.0]]) / math.sqrt(2.0)
upper = oracle_perturbation_bracket(Orthant(2), b, budget=1000, seed=3)
print(f"\nbracket for the diagonal ray: {upper:.9f} (exact 1/sqrt(2) = {1/math.sqrt(2):.9f})")
