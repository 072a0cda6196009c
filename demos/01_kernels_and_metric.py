"""Kernels, what they separate, and the metric they induce.

The estimator can only recover sets that its kernel can separate: the
Abel and L1-exponential families separate every closed set, the linear
kernel only linear subspaces, the Gaussian none (its RKHS is too small).
Every kernel also induces a metric d(x, y) = ||K_x - K_y|| on the input
space; that metric is what the Hausdorff guarantees are stated in.
"""

import numpy as np

from setlearn import (Abel, Gaussian, L1Exponential, Linear,fmt_value,
                      format_kernel, gram, induced_metric, kernel_eval,
                      metric_matrix, normalize, parse_kernel, product_kernel)

x = np.array([0.0, 0.0])
y = np.array([1.0, 0.0])

print("separation class per family:")
for k in (Abel(1.0), L1Exponential(1.0), Gaussian(1.0), Linear()):
    print(f"  {format_kernel(k):40s} separates: {k.separating}")

# Unit separation along one axis: Abel gives exp(-1), and the induced
# distance follows from the polarization identity.
k = Abel(1.0)
print(f"\nabel value at unit separation: {fmt_value(kernel_eval(k, x, y))}")
print(f"induced metric at unit separation: {fmt_value(induced_metric(k, x, y))}")
print(f"metric to itself (exact zero):     {induced_metric(k, x, x)}")

# A product of one-dimensional Abel factors over a coordinate tiling is
# the L1-exponential kernel: the exponents add across factors.
factors = [(Abel(1.0), (0, 1)), (Abel(1.0), (1, 2))]
prod = product_kernel(factors)
l1 = L1Exponential(1.0)
z = np.array([0.3, -0.4])
print(f"\nproduct of 1-d abel factors: {fmt_value(kernel_eval(prod, x, z))}")
print(f"l1-exponential directly:     {fmt_value(kernel_eval(l1, x, z))}")

# Kernel specs round-trip through text, so models can name their kernel.
spec = format_kernel(prod)
print(f"\nspec text: {spec}")
print(f"parses back equal: {parse_kernel(spec) == prod}")

# The linear kernel has no unit diagonal; normalize() fixes that (and is
# the identity on kernels that already have one).
lin = normalize(Linear())
pts = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]])
print(f"\nnormalized linear diagonal: {np.diag(gram(lin, pts))}")
print(f"normalize(abel) is abel: {normalize(k) is k}")

# Pairwise distances under the induced metric; the diagonal is exactly 0.
D = metric_matrix(k, pts)
print(f"\ninduced distance matrix:\n{D}")
