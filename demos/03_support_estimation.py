"""Estimating the support of a distribution from a sample.

Fit on points drawn from a circle, then read off the score function
F_n: close to 1 on the circle, decaying away from it.  The estimated
set is the superlevel set {F_n >= 1 - tau}.  The two score paths
(eigendecomposition, triangular solve) compute the same function, and
Landweber's polynomial gain on the spectral path gives what its gradient
iteration gives.
"""

import numpy as np

from setlearn import (Abel, Landweber, SpectralCutoff, Tikhonov, cross_gram,
                      fit, get_task, gram, member_mask, predict_member, sample,
                      score, score_batch)
from setlearn.estimator import landweber_coefficients

task = get_task("circle")
train = sample(task, 150, seed=0)

model = fit(train, Abel(1.0), Tikhonov(1e-3), tau=0.2)
print(f"fitted: n={model.n}, dim={model.dim}, algorithm={model.algorithm}")

on_support = np.array([1.0, 0.0])
off_support = np.array([0.0, 0.0])       # circle center: not on the curve
far_away = np.array([3.0, 3.0])
for name, x in (("on circle", on_support), ("center", off_support),
                ("far away", far_away)):
    print(f"  F_n({name:9s}) = {score(model, x):.4f}"
          f"  member: {predict_member(model, x)}")

# The two score paths agree to round-off.
probe = np.vstack([train[:10], [[0.0, 0.0], [2.0, 2.0]]])
a = score_batch(fit(train, Abel(1.0), Tikhonov(1e-3), algorithm="spectral"), probe)
b = score_batch(fit(train, Abel(1.0), Tikhonov(1e-3), algorithm="cholesky"), probe)
print(f"\nspectral vs cholesky, max gap: {np.max(np.abs(a - b)):.2e}")
# Landweber scores through its polynomial gain on the eigendecomposition;
# the m+1 gradient steps it stands for give the same scores.
landweber = fit(train, Abel(1.0), Landweber(40))
c = score_batch(landweber, probe)
Kx = cross_gram(landweber.kernel, train, probe)
G = gram(landweber.kernel, train)
d = np.clip(np.einsum("ij,ij->j", landweber_coefficients(G, Kx, 40), Kx), 0.0, 1.0)
print(f"polynomial vs iterative, max gap: {np.max(np.abs(c - d)):.2e}")

# With a cutoff below the whole spectrum the estimator interpolates:
# every training point scores exactly 1.
interp = fit(train, Abel(1.0), SpectralCutoff(1e-10))
s_train = score_batch(interp, train)
print(f"\ncutoff training scores in [{s_train.min():.12f}, {s_train.max():.12f}]")
print(f"all members at tau=0: {bool(member_mask(s_train, 0.0).all())}")

# Membership over a grid sketches the estimated set.
xs = np.linspace(-1.5, 1.5, 31)
grid = np.column_stack([g.ravel() for g in np.meshgrid(xs, xs, indexing="ij")])
member = member_mask(score_batch(model, grid), model.tau)
radii = np.hypot(grid[member][:, 0], grid[member][:, 1])
print(f"\nmember grid cells: {member.sum()} of {member.size}, "
      f"radii in [{radii.min():.2f}, {radii.max():.2f}] (true circle: 1.0)")
