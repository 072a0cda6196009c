"""Support estimation from an i.i.d. sample.

The estimator scores a point x by

    F_n(x) = (1/n) * K_x' g(K_n / n) K_x,      K_x = (K(x_1, x), ..., K(x_n, x))

where g is the gain of a spectral filter.  F_n lies in [0, 1]; it
approaches 1 on the support of the sampling distribution and falls off
away from it when the kernel separates the support.  The estimated set is
the superlevel set {x : F_n(x) >= 1 - tau}.

Every score path is one contraction F = sum_i w_i * Y_i^2 over one factor
of the fitted model: the eigendecomposition, which ``fit`` builds, or the
Cholesky factor, which the first score builds, so that a model that is
only saved (CLI ``train``) never factorizes.

``spectral``
    Y = V' K_x and w = g(s)/n from the eigendecomposition K_n/n = V diag(s) V'.
    Any filter; any regularization strength is a cheap reweighting.
``landweber``
    Landweber only, through the same eigendecomposition with the exact
    polynomial gain g_m(s) = sum_{k<=m} (1-s)^k.  The m+1 step gradient
    iteration (:func:`landweber_coefficients`) is the reference the tests
    check it against.
``cholesky``
    Tikhonov only: Y = L^-1 K_x and w = 1, where L L' = K_n + n*lam*I;
    one triangular solve per batch.  The solve overwrites the batch's own
    K_x, which ``cross_gram`` returns column-major, so it copies nothing.

The factorizations, the triangular solve, the product V' K_x (``dgemm``)
and the sum over i (``dgemv``) all run on scipy's OpenBLAS.  numpy bundles
a second OpenBLAS with its own thread pool, and a threaded call into one
pool right after the other runs several times slower while the first
pool's workers still spin.  V is C-ordered and ``cross_gram`` returns K_x
column-major, so ``dgemm`` reads V' and K_x in place and copies neither.
Only the reference iteration :func:`landweber_coefficients`, which no
score path calls, multiplies in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, solve_triangular
from scipy.linalg.blas import dgemm, dgemv

from .errors import DataError, NumericError, UsageError
from .filters import (_FILTERS, Filter, KpcaTruncation, SpectralCutoff,
                      SpectralDecomposition, _known, decompose)
from .kernels import _as_points, cross_gram, gram

__all__ = [
    "SupportModel", "fit", "score", "score_batch", "predict_member",
    "member_mask", "landweber_coefficients",
    "regularization_path", "kpca_lambda_from_rank",
]

ALGORITHMS = ("spectral", "cholesky", "landweber")

# Eigenvalues of K_n/n at or below this are treated as exact nulls by the
# cutoff scoring path; otherwise round-off eigenvalues of a singular Gram
# would enter the 1/sigma branch with huge gains.  Matches the lambda -> 0
# limit being the pseudo-inverse score.
NULL_EIG = 1e-12

# Round-off guard on the membership threshold.  Training points under a
# full-rank projection filter score 1 only up to arithmetic error, so a
# strict score >= 1 - tau comparison would flip on the last ulp at tau=0.
MEMBER_SLACK = 1e-9


def _check_tau(tau):
    if not np.isfinite(tau) or not 0.0 <= tau < 1.0:
        raise UsageError(f"tau must lie in [0, 1), got {tau!r}")
    return float(tau)


@dataclass(frozen=True, eq=False)
class SupportModel:
    """Fitted state: training points, kernel, filter and the factor it scores through.

    Immutable after fit; the arrays are marked read-only.  ``decomposition``
    is the eigendecomposition of K_n/n, which ``fit`` builds for the
    ``spectral`` and ``landweber`` paths; a ``cholesky`` model holds one only
    when its caller handed one in, and is otherwise ``None``.
    """

    points: np.ndarray
    kernel: object
    filter: Filter
    algorithm: str
    tau: float
    gram: np.ndarray
    decomposition: SpectralDecomposition = field(default=None, repr=False)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    @cached_property
    def cholesky(self):
        """Lower Cholesky factor of K_n + n*lam*I, built on first use."""
        return _cholesky(self.gram, self.filter.lam)


def _cholesky(entries, lam):
    """Lower Cholesky factor of K_n + n*lam*I, as ``cho_factor`` returns it.

    The matrix is built in one Fortran-ordered copy of the Gram entries and
    factorized in place; the upper triangle is left as scratch.  The copy is
    of ``entries.T``, a straight copy that equals the exactly symmetric Gram.
    """
    n = entries.shape[0]
    M = np.array(entries.T, dtype=float, order="F")
    M.flat[::n + 1] += n * lam
    try:
        return cho_factor(M, lower=True, overwrite_a=True)
    except LinAlgError as exc:
        raise NumericError(f"Cholesky factorization failed: {exc}") from None


def fit(points, kernel, filter, algorithm=None, tau=0.0):
    """Fit a support model to a sample.

    Parameters
    ----------
    points : (n, d) array
        Training sample.
    kernel : Kernel
        Must be unit-diagonal; wrap others with ``normalize``.
    filter : Filter
        Spectral filter spec.  A kPCA truncation given by component count
        is resolved here to a concrete threshold against the spectrum.
    algorithm : str, optional
        "spectral" (any filter), "cholesky" (Tikhonov only) or
        "landweber" (Landweber only).  Defaults to the path the filter's
        family owns (``Filter.algorithm``); the regularization path always
        goes through the decomposition whatever the model's score path.
    tau : float
        Default membership margin in [0, 1); ``predict_member`` may
        override it per call.
    """
    return _fit(points, kernel, filter, algorithm, tau)


def _score_path(family, algorithm):
    """The score path of a filter family (class or spec): its own path for
    None, else ``algorithm`` if it is ``spectral`` or the family's own."""
    if algorithm is None:
        return family.algorithm
    if algorithm not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    if algorithm not in ("spectral", family.algorithm):
        owner = next(f for f in _FILTERS.values() if f.algorithm == algorithm)
        raise UsageError(f"the {algorithm} path applies only to the {owner.__name__} filter")
    return algorithm


def _fit(points, kernel, filter, algorithm, tau, G=None, decomposition=None):
    """:func:`fit`, for a caller that holds the Gram (and decomposition) already."""
    pts = np.array(_as_points(points), copy=True)
    _known(filter)
    if not kernel.unit_diagonal:
        raise UsageError(
            "support estimation needs a unit-diagonal kernel; wrap it with normalize()")
    algorithm = _score_path(filter, algorithm)
    tau = _check_tau(tau)
    G = gram(kernel, pts) if G is None else G
    if decomposition is None and algorithm != "cholesky":
        decomposition = decompose(G)
    if isinstance(filter, KpcaTruncation) and filter.lam is None:
        filter = KpcaTruncation(lam=kpca_lambda_from_rank(decomposition, filter.components))
    pts.setflags(write=False)
    G.setflags(write=False)
    return SupportModel(points=pts, kernel=kernel, filter=filter,
                        algorithm=algorithm, tau=tau, gram=G,
                        decomposition=decomposition)


def _check_query(model, X):
    X = _as_points(X, "query points")
    if X.shape[1] != model.dim:
        raise DataError(
            f"query dimension {X.shape[1]} does not match model dimension {model.dim}")
    return X


def score_batch(model, X):
    """Scores F_n for a batch of query points, clamped to [0, 1].

    One contraction F = sum_i w_i * Y_i^2: Y = V' K_x with w = g(s)/n on the
    eigendecomposition (``spectral`` and ``landweber``), or Y = L^-1 K_x with
    w = 1 on the Cholesky factor (``cholesky``).
    """
    X = _check_query(model, X)
    if model.algorithm != "cholesky":
        return _spectral_scores(model, X, [model.filter])[0]
    Kx = cross_gram(model.kernel, model.points, X)
    Y = solve_triangular(model.cholesky[0], Kx, lower=True, overwrite_b=True,
                         check_finite=False)
    return np.clip(_weighted_sum(np.ones(model.n), np.square(Y, out=Y)), 0.0, 1.0)


def score(model, x):
    """Score F_n(x) for a single query point."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DataError("score expects a single point, use score_batch for batches")
    return float(score_batch(model, x[None, :])[0])


def member_mask(scores, tau):
    """Threshold scores at 1 - tau with the ``MEMBER_SLACK`` round-off guard."""
    tau = _check_tau(tau)
    return np.asarray(scores, dtype=float) >= 1.0 - tau - MEMBER_SLACK


def predict_member(model, x, tau=None):
    """Membership x in {F_n >= 1 - tau}.  1-d input gives a bool, 2-d a bool array."""
    tau = model.tau if tau is None else _check_tau(tau)
    x = np.asarray(x, dtype=float)
    member = member_mask(score_batch(model, x[None, :] if x.ndim == 1 else x), tau)
    return bool(member[0]) if x.ndim == 1 else member


def _spectral_scores(model, X, filters):
    """Scores through the eigendecomposition, one row per filter: Y = V' K_x
    and its square once, then F = (g(s)/n) @ Y^2 for each filter, clipped."""
    D = model.decomposition or decompose(model.gram)
    Y = dgemm(1.0, D.eigenvectors.T, cross_gram(model.kernel, model.points, X))
    np.square(Y, out=Y)
    out = np.empty((len(filters), X.shape[0]))
    for i, f in enumerate(filters):
        w = _scoring_gains(f, D.eigenvalues) / model.n
        out[i] = np.clip(_weighted_sum(w, Y), 0.0, 1.0)
    return out


def _weighted_sum(w, Y):
    """w @ Y by scipy's dgemv.  Every score path's Y is column-major, so it is not copied."""
    return dgemv(1.0, Y, w, trans=1)


def _scoring_gains(f, eigenvalues):
    gv = f._g(eigenvalues)
    if isinstance(f, SpectralCutoff):
        gv = gv.copy()
        gv[eigenvalues <= NULL_EIG] = 0.0
    return gv


def landweber_coefficients(g, kx, iterations):
    """Landweber recursion alpha <- alpha + (kx - K_n alpha)/n, run m+1 times.

    After m+1 updates alpha equals (1/n) * g_m(K_n/n) kx exactly as a
    polynomial identity, so the iterative and spectral paths agree to
    round-off.
    """
    n = g.shape[0]
    alpha = np.zeros_like(np.asarray(kx, dtype=float))
    for _ in range(iterations + 1):
        alpha += (kx - g @ alpha) / n
    return alpha


def regularization_path(model, X, grid):
    """Scores for every regularization strength in ``grid``, one decomposition.

    ``grid`` holds lam values (Tikhonov, cutoff, kPCA threshold) or
    iteration counts (Landweber), matching the model's filter family.
    Returns an array of shape (len(grid), len(X)).
    """
    grid = list(grid)
    if not grid:
        raise UsageError("empty regularization grid")
    X = _check_query(model, X)
    return _spectral_scores(model, X, [model.filter.at(value) for value in grid])


def kpca_lambda_from_rank(decomposition, components):
    """Threshold keeping exactly ``components`` distinct positive eigenvalues.

    Accepts a SpectralDecomposition or a bare eigenvalue vector.  Returns
    the midpoint of the M-th and (M+1)-th distinct positive eigenvalues,
    so small perturbations of the spectrum do not flip the truncation.
    """
    M = int(components)
    if M < 1:
        raise UsageError(f"component count must be >= 1, got {components!r}")
    distinct = np.unique(getattr(decomposition, "eigenvalues", decomposition))[::-1]
    distinct = distinct[distinct > 0.0]
    if distinct.size < M + 1:
        raise UsageError(
            f"component count {M} needs at least {M + 1} distinct positive "
            f"eigenvalues, the spectrum has {distinct.size}")
    return float((distinct[M - 1] + distinct[M]) / 2.0)
