"""Finite-sample error bounds and their Monte-Carlo verification.

The calculators are plain formulas: concentration of the empirical
operator, sample and approximation errors, the combined finite-sample
bound and a Bernstein bound for vector averages.  The harnesses draw
seeded trials and report how often the observed quantity exceeds the
bound; the theory tolerates a fraction of at most 2*exp(-delta).
"""

import numpy as np

from setlearn import (Abel, approximation_error_bound, bernstein_bound,
                      concentration_bound, effective_dimension,
                      finite_sample_bound, get_task, hs_distance, hs_norm,
                      sample, sample_error_bound)
from setlearn.oracles import bernstein_trials, concentration_trials

n, delta = 100, 2.0
print(f"concentration bound (n={n}, delta={delta}): "
      f"{concentration_bound(n, delta):.4f}")
print(f"effective dimension at lambda=0.01 of a geometric spectrum: "
      f"{effective_dimension(0.5 ** np.arange(20), 0.01):.4f}")
print(f"sample error bound:        {sample_error_bound(n, 0.1, delta, 5.0):.4f}")
print(f"approximation error bound: {approximation_error_bound(0.1, 1.0, 1.0):.4f}")
print(f"finite-sample bound (s=b=1, n=1024): "
      f"{finite_sample_bound(1024, 0.5, 1.0, 1.0, 1.0, 1.0):.7f}")
print(f"bernstein bound:           {bernstein_bound(1.0, 1.0, n, delta):.4f}")

# Hilbert-Schmidt geometry of empirical operators, computed from Gram
# algebra alone -- no eigendecomposition, no explicit operator.  An
# operator T_n is given, like a Gram matrix, by a kernel and its sample.
task = get_task("circle")
kernel = Abel(1.0)
a, b = sample(task, 80, seed=1), sample(task, 80, seed=2)
print(f"\n||T_80|| = {hs_norm(kernel, a):.4f} (at most 1 for unit-diagonal kernels)")
print(f"||T_80 - T_80'|| = {hs_distance(kernel, a, b):.4f} (two independent draws)")

# Monte-Carlo check at desk scale: a large reference sample stands in
# for the true operator.
observed, bound = concentration_trials(task.draw, kernel, n=60, delta=2.0,
                                       trials=100, ref_size=4000, seed=0)
frac = (observed > bound).mean()
print(f"\noperator concentration: {frac:.3f} of trials exceed the bound "
      f"(tolerated: {2 * np.exp(-2.0):.3f})")

observed, bound = bernstein_trials(n=500, delta=2.0, trials=200, seed=0)
frac = (observed > bound).mean()
print(f"coin-flip Bernstein:    {frac:.3f} of trials exceed the bound")
