"""Spectral filters: regularized approximations of the step function.

A filter is a family r_lambda approximating the Heaviside step on [0, 1];
g_lambda(s) = r_lambda(s)/s is the regularized inverse the estimator
applies to the scaled Gram matrix.  Four families ship: Tikhonov,
spectral cutoff, Landweber iteration and kernel-PCA truncation.
"""

import numpy as np

from setlearn import (Abel, KpcaTruncation, Landweber, SpectralCutoff,
                      Tikhonov, decompose, format_filter, gram, parse_filter)

s = np.linspace(0.0, 1.0, 6)
print("r_lambda on [0, 1] (step-function approximations):")
for f in (Tikhonov(0.1), SpectralCutoff(0.1), Landweber(9), KpcaTruncation(0.1)):
    L = f.lipschitz()
    lip = "none (not Lipschitz)" if L is None else f"{L:g}"
    print(f"  {format_filter(f):28s} r={np.round(f.r(s), 3)}  L={lip}")

# r = s * g holds across families to a few ulps; Landweber evaluates
# r = 1 - (1-s)^(m+1) in full precision and takes g = r/s from it.
f = Landweber(9)
print(f"\nlandweber r - s*g: {np.max(np.abs(f.r(s) - s * f.g(s)))}")

# Decomposing the scaled Gram matrix of a sample: eigenvalues live in
# [0, 1] and sum to 1 for unit-diagonal kernels.
rng = np.random.default_rng(7)
pts = rng.uniform(-1.0, 1.0, (30, 2))
D = decompose(gram(Abel(1.0), pts))
print(f"\neigenvalues (top 5): {np.round(D.eigenvalues[:5], 4)}")
print(f"sum of eigenvalues: {D.eigenvalues.sum()}")

# Filter specs round-trip through text like kernel specs do.
text = format_filter(Tikhonov(0.05))
print(f"\nspec text: {text}")
print(f"parses back equal: {parse_filter(text) == Tikhonov(0.05)}")
