"""Choosing the width, the regularization strength and the threshold.

Support estimation is unsupervised, so cross-validation is off the
table.  Three heuristics stand in: the kernel width from the median
10th-nearest-neighbor distance, the regularization strength from the
curvature knee of the eigenvalue decay, and a rate-derived lambda when
smoothness assumptions are available.  A regularization path shows how
scores move across a lambda grid at one eigendecomposition's cost.
"""

import numpy as np

from setlearn import (Abel, Tikhonov, decompose, fit, get_task, gram,
                      kpca_lambda_from_rank, lambda_curvature, rate_lambda,
                      regularization_path, sample, width_heuristic)

task = get_task("two_moons")
train = sample(task, 200, seed=3)

sigma = width_heuristic(train)           # median 10th-NN distance
print(f"width heuristic: sigma = {sigma:.4f}")

D = decompose(gram(Abel(sigma), train))
lam = lambda_curvature(D.eigenvalues)
print(f"curvature knee:  lambda = {lam:.6g}")
print(f"rate choice (s=b=1, n=200): lambda = {rate_lambda(200):.4f}")
print(f"lambda keeping 10 kpca components: {kpca_lambda_from_rank(D.eigenvalues, 10):.6g}")

# One decomposition, many lambdas: the path reports scores for each.
model = fit(train, Abel(sigma), Tikhonov(lam))
lams = np.logspace(-6, -1, 6)
probe = np.vstack([train[:3], [[0.5, 0.25], [2.4, 1.4]]])
path = regularization_path(model, probe, lams)
print("\nscores along the lambda grid (rows = lambda, cols = points):")
for l, row in zip(lams, path):
    print(f"  lambda={l:8.1e}  {np.round(row, 3)}")
print("(training points hold near 1 until lambda passes the knee; the"
      "\n far corner point stays low throughout)")
