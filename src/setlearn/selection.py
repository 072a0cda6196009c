"""Data-driven parameter choices: kernel width, regularization strength.

These are the working heuristics used in the experiments plus the
theory-backed rate schedule; none of them claims optimality.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError, UsageError, check_number, real_array
from .filters import NULL_EIG
from .kernels import _as_points

__all__ = ["width_heuristic", "lambda_curvature", "rate_lambda"]


def width_heuristic(points, k=10):
    """Median distance to the k-th nearest neighbour (self excluded).

    Permutation- and translation-invariant, scales linearly with the
    data.  Even-count medians average the two central order statistics.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    check_number(f"k must be an integer in [1, n) = [1, {n})", k,
                 ok=lambda v: 1 <= v < n, integral=True)
    tree = cKDTree(pts)
    # query returns the point itself at rank 0, so the k-th neighbour sits
    # at column k
    dist, _ = tree.query(pts, k=k + 1)
    sigma = float(np.median(dist[:, k]))
    if sigma <= 0.0:
        raise DataError(
            "width heuristic degenerated to 0 (duplicated points); sigma must be positive")
    return sigma


def lambda_curvature(eigenvalues):
    """Eigenvalue at the sharpest bend of the log-spectrum.

    Over the descending positive spectrum, pick the interior index
    maximizing the discrete second difference of log10(sigma_j); ties go
    to the smallest index.  The returned lambda is always one of the
    input eigenvalues.
    """
    s = real_array("eigenvalues must be real numbers", eigenvalues)
    if s.ndim != 1:
        raise UsageError(f"eigenvalues must be a 1-d array, got shape {s.shape}")
    s = np.sort(s)[::-1]
    s = s[s > NULL_EIG]
    if s.size < 3:
        raise UsageError(
            f"curvature heuristic needs at least 3 positive eigenvalues, got {s.size}")
    logs = np.log10(s)
    curvature = logs[:-2] - 2.0 * logs[1:-1] + logs[2:]
    # exact ties (e.g. a geometric spectrum, curvature 0 everywhere) come
    # out of log10 with last-ulp wobble, so compare with slack before
    # taking the smallest tied index
    tie_slack = 64.0 * np.finfo(float).eps * max(1.0, float(np.abs(logs).max()))
    j = int(np.argmax(curvature >= curvature.max() - tie_slack)) + 1
    return float(s[j])


def rate_lambda(n, s=1.0, b=1.0):
    """Schedule lambda_n = n^(-1/(2s + b + 1)) for smoothness s and decay b.

    The defaults s = b = 1 are the most favourable case; Abel(1) on the
    uniform unit circle has s = b = 1/2.
    """
    check_number("n must be >= 1", n, ok=lambda v: v >= 1)
    check_number("s must lie in (0, 1]", s, ok=lambda v: 0 < v <= 1)
    check_number("b must lie in [0, 1]", b, ok=lambda v: 0 <= v <= 1)
    return float(n) ** (-1.0 / (2.0 * s + b + 1.0))
