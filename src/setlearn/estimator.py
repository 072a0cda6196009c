"""Support estimation from an i.i.d. sample.

The estimator scores a point x by

    F_n(x) = (1/n) * K_x' g(K_n / n) K_x,      K_x = (K(x_1, x), ..., K(x_n, x))

where g is the gain of a spectral filter.  F_n lies in [0, 1]; it
approaches 1 on the support of the sampling distribution and falls off
away from it when the kernel separates the support.  The estimated set is
the superlevel set {x : F_n(x) >= 1 - tau}.

A model checks its fields when it is built (:class:`SupportModel`, which
:func:`fit` calls) and solves on first use, so a bad query is refused first.

Every score path is one contraction F = sum_i w_i * Y_i^2 over one factor
of the fitted model.  Wherever the filter's gains allow it, that factor is
a lower-triangular W, built on the first score so that a model that is
only saved (CLI ``train``) never factorizes, and Y = W K_x is one
triangular product per batch (``dtrmm``).  The product overwrites the
batch's own K_x, which ``cross_gram`` returns column-major, so it copies
nothing.  The score path names the factor:

``cholesky``
    Tikhonov only: W = L^-1 with L L' = K_n + n*lam*I, and w = 1.
``spectral``
    Any filter, through the eigendecomposition K_n/n = V diag(s) V'.  With
    c = max g(s), W = L^-1 with L L' = V diag(c/g(s)) V', whose eigenvalues
    lie in [1, cond], and w = c/n.  ``landweber`` is this path with the
    Landweber gain g_m(s) = sum_{k<=m} (1-s)^k, not a third mechanism; the
    m+1 step gradient iteration (:func:`landweber_coefficients`) is the
    reference the tests check it against.

Either W is inverted once per model (``dtrtri``), in place on the one n x n
buffer the Cholesky factorization overwrites: for ``cholesky`` a fresh Gram,
which the model does not keep.  A spectral model whose gains have a zero
(kPCA, a cutoff whose Gram has null eigenvalues) or spread wider than
``MAX_FACTOR_COND`` (Tikhonov at a tiny lambda) has no such factor: it
scores through Y = V' K_x (``dgemm``) and w = g(s)/n, as
:func:`regularization_path` does for every model, since many filters share
its one product.

The factorizations, the products and the sum over i (``dgemv``) all run on
scipy's OpenBLAS.  numpy bundles a second OpenBLAS with its own thread
pool, and a threaded call into one pool right after the other runs several
times slower while the first pool's workers still spin.  V is C-ordered
and ``cross_gram`` returns K_x column-major, so ``dgemm`` reads V' and K_x
in place and copies neither.  Only the reference iteration
:func:`landweber_coefficients`, which no score path calls, multiplies in
numpy.
"""

from __future__ import annotations

import numbers
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_factor
from scipy.linalg.blas import dgemm, dgemv, dsyrk, dtrmm
from scipy.linalg.lapack import dtrtri

from .errors import DataError, NumericError, UsageError
from .filters import (_FILTERS, NULL_EIG, Filter, KpcaTruncation, SpectralCutoff,
                      SpectralDecomposition, _known)
# The in-place solve under the public name, which bench/tracing.py wraps.
from .filters import _decompose_in_place as decompose
from .kernels import Kernel, _as_points, cross_gram, gram

__all__ = [
    "SupportModel", "fit", "score", "score_batch", "predict_member",
    "member_mask", "landweber_coefficients",
    "regularization_path", "kpca_lambda_from_rank",
]

ALGORITHMS = ("spectral", "cholesky", "landweber")

# Round-off guard on the membership threshold.  Training points under a
# full-rank projection filter score 1 only up to arithmetic error, so a
# strict score >= 1 - tau comparison would flip on the last ulp at tau=0.
MEMBER_SLACK = 1e-9

# Widest spread max g / min g of a spectral model's gains that it factorizes:
# 1/sqrt(eps), about 6.7e7.  A wider one scores through V, since the error of
# the triangular product grows with the condition of the factorized operator.
MAX_FACTOR_COND = 1.0 / np.sqrt(np.finfo(float).eps)


def _check_tau(tau):
    """``tau`` as a float in [0, 1); anything else, a non-number too, is a usage error."""
    real = isinstance(tau, numbers.Real) and not isinstance(tau, bool)
    if not (real and 0.0 <= float(tau) < 1.0):   # nan and inf fail the comparison
        raise UsageError(f"tau must lie in [0, 1), got {tau!r}")
    return float(tau)


@dataclass(frozen=True, eq=False)
class SupportModel:
    """Fitted state: training points, kernel, filter, score path and margin.

    Construction checks every field as :func:`fit` documents it, keeps a
    read-only copy of the points and solves nothing but the spectrum a kPCA
    component count needs.  The model builds the rest itself, at most once,
    on first use: the ``decomposition`` (seeded by ``eigenpairs``) and the
    ``inverse_factor`` it scores through.  No model holds a Gram: each
    solve starts from a fresh ``gram(kernel, points)``.
    """

    points: np.ndarray
    kernel: Kernel
    filter: Filter
    algorithm: str
    tau: float
    eigenpairs: InitVar[SpectralDecomposition] = None

    def __post_init__(self, eigenpairs):
        fields = vars(self)   # frozen: a checked field goes straight into the instance
        fields["points"] = points = np.array(_as_points(self.points), copy=True)
        points.setflags(write=False)
        _known(self.filter)
        if not (isinstance(self.kernel, Kernel) and self.kernel.unit_diagonal):
            raise UsageError(
                "support estimation needs a unit-diagonal kernel; wrap it with normalize()")
        fields["algorithm"] = _score_path(self.filter, self.algorithm)
        fields["tau"] = _check_tau(self.tau)
        if eigenpairs is not None:
            n = self.n
            shapes = np.shape(eigenpairs.eigenvalues), np.shape(eigenpairs.eigenvectors)
            if shapes != ((n,), (n, n)):
                raise UsageError(f"eigenpairs must hold {n} eigenvalues and an {n} x {n} matrix")
            fields["decomposition"] = eigenpairs
        if isinstance(self.filter, KpcaTruncation) and self.filter.lam is None:
            fields["filter"] = KpcaTruncation(
                lam=kpca_lambda_from_rank(self.decomposition, self.filter.components))

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    @cached_property
    def decomposition(self):
        """Eigendecomposition of K_n/n: ``eigenpairs``, else solved on first read,
        in place on a fresh Gram: 3 n^2 at the peak, that Gram and dsyevd's workspace."""
        return decompose(gram(self.kernel, self.points))

    @cached_property
    def _gains(self):
        """g(s) on the spectrum, as a spectral model's score weights it."""
        return _scoring_gains(self.filter, self.decomposition.eigenvalues)

    @property
    def _factor_scale(self):
        """The weight w of every squared entry of W K_x: 1 on the ``cholesky``
        path, c/n with c = max g(s) on the others."""
        return 1.0 if self.algorithm == "cholesky" else self._gains.max() / self.n

    @cached_property
    def inverse_factor(self):
        """Lower-triangular W = L^-1, built on first use, with L L' = K_n + n*lam*I
        on the ``cholesky`` path and L L' = V diag(c/g(s)) V' on the others;
        ``None`` for gains with a zero or spread wider than ``MAX_FACTOR_COND``.

        W is inverted in place on the one n x n buffer that ``_factorize``
        overwrites, so its lower triangle is W and its upper triangle is
        scratch; ``dtrmm(lower=1)`` reads only the lower one.
        """
        if self.algorithm == "cholesky":
            L = _cholesky(gram(self.kernel, self.points), self.filter.lam)[0]
        else:
            g = self._gains
            if not (g.min() > 0.0 and g.max() <= g.min() * MAX_FACTOR_COND):
                return None
            # B = V diag(sqrt(c/g)) is C-ordered, so dsyrk reads B' in place as
            # a Fortran array and forms B B' in the lower triangle of its output.
            B = self.decomposition.eigenvectors * np.sqrt(g.max() / g)
            L = _factorize(dsyrk(1.0, B.T, trans=1, lower=1))[0]
        W, info = dtrtri(L, lower=1, overwrite_c=1)
        # min and max propagate nan and inf without an n x n mask.
        if info != 0 or not (np.isfinite(W.min()) and np.isfinite(W.max())):
            raise NumericError("inverting the Cholesky factor failed: "
                               "the factorized operator is too ill-conditioned")
        return W


def _cholesky(G, lam):
    """Lower Cholesky factor of K_n + n*lam*I, as ``cho_factor`` returns it.

    Overwrites the Gram ``G``: shifts its diagonal and factorizes it in place
    on its Fortran view G', which equals G because :func:`.gram` builds a
    C-ordered Gram exactly symmetric by construction, so nothing is copied.
    """
    n = G.shape[0]
    shift = n * lam
    if not np.isfinite(shift):
        raise NumericError(f"n*lambda overflows the float range (n={n}, lambda={lam!r})")
    G.flat[::n + 1] += shift
    return _factorize(G.T)


def _factorize(M):
    """``cho_factor`` of a Fortran-ordered M, lower and in place; the upper
    triangle is left as scratch.  M is finite by construction, so
    ``cho_factor`` skips its finiteness scan."""
    try:
        return cho_factor(M, lower=True, overwrite_a=True, check_finite=False)
    except LinAlgError as exc:
        raise NumericError(f"Cholesky factorization failed: {exc}") from None


def fit(points, kernel, filter, algorithm=None, tau=0.0, eigenpairs=None):
    """Fit a support model to a sample: :class:`SupportModel` with defaults,
    which checks every argument and solves on first use.

    Parameters
    ----------
    points : (n, d) array
        Training sample; the model keeps a read-only copy.
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
    eigenpairs : SpectralDecomposition, optional
        The decomposition of K_n/n, for a caller that solved it already: n
        eigenvalues and an n x n eigenvector matrix, their values trusted.
    """
    return SupportModel(points, kernel, filter, algorithm, tau, eigenpairs)


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


def _check_query(X, dim):
    """Query points as an (m, d) array, refused unless d is the model's ``dim``."""
    X = _as_points(X, "query points")
    if X.shape[1] != dim:
        raise DataError(f"query dimension {X.shape[1]} does not match model dimension {dim}")
    return X


def score_batch(model, X):
    """Scores F_n for a batch of query points, clamped to [0, 1].

    One contraction F = sum_i w_i * Y_i^2: Y = W K_x with the model's
    ``inverse_factor`` W, or Y = V' K_x with w = g(s)/n on the
    eigendecomposition for a model without one.
    """
    X = _check_query(X, model.dim)
    # The factor before K_x: the other order read 10% more peak RSS on the
    # score-stream.spectral benchmark, from where malloc placed the n x n buffers.
    W = model.inverse_factor
    if W is None:
        return _spectral_scores(model, X, [model.filter])[0]
    Y = dtrmm(1.0, W, cross_gram(model.kernel, model.points, X), lower=1, overwrite_b=1)
    w = np.full(model.n, model._factor_scale)
    return np.clip(_weighted_sum(w, np.square(Y, out=Y)), 0.0, 1.0)


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
    D = model.decomposition
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
    X = _check_query(X, model.dim)
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
