"""Quality metrics for set estimates and the classical baselines.

Sets are compared through finite discretizations (grids for volume,
sample clouds for Hausdorff); the discretization error is one grid step.
The ROC/AUC harness compares score functions without committing to a
threshold, which also makes it invariant to monotone rescalings, so the
unnormalized Parzen baseline competes on equal footing.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DataError, NumericError, check_number, real_array
from .kernels import Abel, _point_pair, metric_matrix

__all__ = [
    "hausdorff", "symdiff_measure", "roc_auc",
    "parzen_score", "devroye_wise_member",
]

# Most entries in one row block of a query-by-set block (oracles.TILE squared).
# A row's sum or minimum reads that row alone, so the blocks keep the whole's bits.
BLOCK_ENTRIES = 2 ** 16


def _row_blocks(X, other):
    """X's rows in slices of at most ``BLOCK_ENTRIES`` entries against ``other``."""
    step = max(1, BLOCK_ENTRIES // len(other))
    return (X[i:i + step] for i in range(0, len(X), step))


def hausdorff(A, B, kernel=None):
    """Hausdorff distance max(sup_a d(a, B), sup_b d(b, A)) on finite sets.

    Euclidean by default; pass a kernel spec to use the metric it induces.
    Both sets must be nonempty.  Euclidean distances go in row blocks of A
    (``BLOCK_ENTRIES``), a running minimum per column; the kernel path is one block.
    """
    A, B = _point_pair(A, B, ("A", "B"))
    to_b, to_a = 0.0, np.inf
    for D in ((cdist(Q, B) for Q in _row_blocks(A, B)) if kernel is None
              else [metric_matrix(kernel, A, B)]):
        to_b, to_a = max(to_b, D.min(axis=1).max()), np.minimum(to_a, D.min(axis=0))
        del D   # freed before the next block is built
    return float(max(to_b, to_a.max()))


def symdiff_measure(inside_a, inside_b, cell_volume):
    """Measure of the symmetric difference of two indicator grids.

    ``cell_volume`` times the number of cells where the indicators
    disagree; both indicators must live on the same grid.
    """
    a, b = (real_array("indicator grids must hold booleans or numbers", x, data=True) != 0
            for x in (inside_a, inside_b))
    if a.shape != b.shape:
        raise DataError(f"indicator grids differ in shape: {a.shape} vs {b.shape}")
    check_number("cell volume must be positive", cell_volume, ok=lambda v: v > 0)
    return float(cell_volume) * int(np.count_nonzero(a != b))


def roc_auc(scores, labels):
    """ROC points and the area under the curve for labeled scores.

    Returns (points, auc).  ``points`` is a (k, 2) array of (false
    positive rate, true positive rate) pairs, one per distinct threshold
    plus the origin.  The AUC is the trapezoid area under those points,
    summed in integers over the tie groups' counts and divided once, so a
    tie counts half and the value is the Mann-Whitney statistic U/(P N),
    exact rather than an integration artifact.
    """
    scores = real_array("scores contain non-finite values", scores, data=True,
                        finite=True).astype(float, copy=False)
    labels = real_array("labels must hold booleans or numbers", labels, data=True) != 0
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise DataError("scores and labels must be matching vectors")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs at least one positive and one negative label")

    order = np.argsort(-scores, kind="stable")
    # one ROC point per distinct threshold: the last index of each tie group
    last = np.flatnonzero(np.r_[np.diff(scores[order]) != 0, True])
    tp = np.cumsum(labels[order])[last]
    fp = last + 1 - tp
    # twice the area: sum of dFP * (TP_k + TP_{k-1}), exact in integers
    twice_area = int(np.diff(fp, prepend=0) @ (tp + np.r_[0, tp[:-1]]))
    auc = twice_area / (2 * n_pos * n_neg)
    points = np.empty((last.size + 1, 2))
    points[0] = (0.0, 0.0)
    points[1:, 0] = fp / n_neg
    points[1:, 1] = tp / n_pos
    return points, auc


def parzen_score(train, h, x):
    """Plug-in estimate (1/(n h^d)) sum_i exp(-||x - x_i|| / h).

    Deliberately unnormalized (the profile exp(-||u||) does not integrate
    to one); ROC comparisons are unaffected.  A 1-d ``x`` gives a float,
    a 2-d batch gives a vector.  The sum is the ``Abel(h)`` block, in row
    blocks of the queries (``BLOCK_ENTRIES``).  A
    bandwidth whose n h^d, or n / (n h^d), the bound on every score, is
    not a positive finite float is refused with a ``NumericError``.
    """
    check_number("bandwidth must be positive", h, ok=lambda v: v > 0)
    x = real_array("x must be real numbers", x, data=True)
    single = x.ndim == 1
    X, train = _point_pair(x[None, :] if single else x, train, ("x", "train"))
    n, d = train.shape
    try:
        norm = n * float(h) ** d
    except OverflowError:
        norm = np.inf
    if not (0.0 < norm < np.inf and n / norm < np.inf):
        raise NumericError(
            f"bandwidth {h!r} leaves the Parzen normalizer 1/(n*h^d) outside "
            f"the float range at n={n}, d={d}")
    kernel = Abel(h)
    vals = np.concatenate([kernel._pairwise(Q, train).sum(axis=1)
                           for Q in _row_blocks(X, train)]) / norm
    return float(vals[0]) if single else vals


def devroye_wise_member(train, eps, x):
    """Union-of-balls membership: min_i ||x - x_i|| <= eps (closed balls).

    A 1-d ``x`` gives a bool, a 2-d batch gives a bool vector.  The distances
    go in row blocks of the queries (``BLOCK_ENTRIES``).
    """
    check_number("radius must be positive", eps, ok=lambda v: v > 0)
    x = real_array("x must be real numbers", x, data=True)
    single = x.ndim == 1
    X, train = _point_pair(x[None, :] if single else x, train, ("x", "train"))
    member = np.concatenate([cdist(Q, train).min(axis=1) for Q in _row_blocks(X, train)]) <= eps
    return bool(member[0]) if single else member
