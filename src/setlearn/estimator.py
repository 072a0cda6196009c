"""Support estimation from an i.i.d. sample.

The estimator scores a point x by

    F_n(x) = (1/n) * K_x' g(K_n / n) K_x,      K_x = (K(x_1, x), ..., K(x_n, x))

where g is the gain of a spectral filter.  F_n lies in [0, 1]; it
approaches 1 on the support of the sampling distribution and falls off
away from it when the kernel separates the support.  The estimated set is
the superlevel set {x : F_n(x) >= 1 - tau}.

A model checks its fields when it is built (:func:`fit`, which is
:class:`SupportModel`) and solves on first use, so a bad query is refused first.

Every score path is one contraction F = sum_i w_i * Y_i^2 over one factor
of the fitted model, built and clipped in one function, ``_contract``, for
either factor and one or many weight vectors.  Wherever the filter's gains
allow it, that factor is a triangular T with F = ||T K_x||^2 and w = 1,
built on the first score so that a model that is only saved (CLI ``train``)
never factorizes, and Y = T K_x is one triangular product per batch
(``dtrmm``).  The product overwrites the batch's own K_x, which
``cross_gram`` returns column-major, so it copies nothing.  The score path
names the factor:

``cholesky``
    Tikhonov only: the lower W = L^-1 with L L' = K_n + n*lam*I, inverted
    (``dtrtri``) in place on the one n x n buffer the Cholesky factorization
    overwrites, a fresh Gram that the model does not keep.
``spectral``
    Any filter, through the eigendecomposition K_n/n = V diag(s) V': the
    upper R of one Householder QR (``dgeqrf``) of A' = diag(sqrt(g(s)/n)) V',
    run in place on the buffer of A, so R'R = V diag(g(s)/n) V'.  Landweber
    scores here like any other filter, with its gain
    g_m(s) = sum_{k<=m} (1-s)^k; the m+1 step gradient iteration
    (:func:`landweber_coefficients`) is the reference the tests check it
    against.

A spectral model's gains are its filter's ``_score_gains``: g(s), but 0 at a
cutoff's null eigenvalues (at or below ``NULL_EIG``).  A model whose gains
have a zero (kPCA, a cutoff whose Gram has null eigenvalues) or spread wider
than ``MAX_FACTOR_COND`` (Tikhonov at a tiny lambda) has no such factor: it
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

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_factor
from scipy.linalg.blas import dgemm, dgemv, dtrmm
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dtrtri

from .errors import DataError, NumericError, UsageError, check_number, real_array
from .filters import _FILTERS, Filter, KpcaTruncation, SpectralDecomposition
# The in-place solve under the public name, which bench/tracing.py wraps.
from .filters import _decompose_in_place as decompose
from .kernels import Kernel, _as_points, cross_gram, gram

__all__ = [
    "SupportModel", "fit", "score", "score_batch", "predict_member",
    "member_mask", "regularization_path", "kpca_lambda_from_rank",
]

ALGORITHMS = ("spectral", "cholesky")

# Round-off guard on the membership threshold.  Training points under a
# full-rank projection filter score 1 only up to arithmetic error, so a
# strict score >= 1 - tau comparison would flip on the last ulp at tau=0.
MEMBER_SLACK = 1e-9

# Widest spread max g / min g of a spectral model's gains that it factorizes:
# 1/sqrt(eps), about 6.7e7.  A wider one scores through V.  On 13 copies of one
# point (Gaussian, sigma = 1.43, lambda = 10^-13.5, spread 3.5e13) an ungated
# QR factor read 1.35e-9 off the exact k^2/(1+lambda), past MEMBER_SLACK,
# where V' K_x and the Cholesky path read within 7e-16.
MAX_FACTOR_COND = 1.0 / np.sqrt(np.finfo(float).eps)


def _check_tau(tau):
    """``tau`` as a float in [0, 1); anything else, a non-number too, is a usage error."""
    check_number("tau must lie in [0, 1)", tau, ok=lambda v: 0 <= v < 1)
    return float(tau)


@dataclass(frozen=True, eq=False)
class SupportModel:
    """A support model fitted to a sample: :func:`fit` is this constructor.

    Construction checks every argument, keeps a read-only copy of the points
    and solves nothing but the spectrum a kPCA component count needs.  The
    model builds the rest itself, at most once, on first use: the
    ``decomposition`` (seeded by ``eigenpairs``) and the ``factor`` it
    scores through.  No model holds a Gram: each solve starts from a
    fresh ``gram(kernel, points)``.

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
        "spectral" (any filter) or "cholesky" (Tikhonov only), by default the
        path the filter's family owns (``Filter.algorithm``); a Landweber model
        reads "landweber", an old model file's name for it, as "spectral".  The
        regularization path goes through the decomposition whatever the path.
    tau : float
        Default membership margin in [0, 1); ``predict_member`` may
        override it per call.
    eigenpairs : SpectralDecomposition, optional
        The decomposition of K_n/n, for a caller that solved it already: n
        eigenvalues and an n x n eigenvector matrix, their values trusted.
    """

    points: np.ndarray
    kernel: Kernel
    filter: Filter
    algorithm: str = None
    tau: float = 0.0
    eigenpairs: InitVar[SpectralDecomposition] = None

    def __post_init__(self, eigenpairs):
        fields = vars(self)   # frozen: a checked field goes straight into the instance
        fields["points"] = points = np.array(_as_points(self.points), copy=True)
        points.setflags(write=False)
        if not (isinstance(self.filter, Filter) and self.filter.name in _FILTERS):
            raise UsageError(f"unknown filter {self.filter!r}")
        if not (isinstance(self.kernel, Kernel) and self.kernel.unit_diagonal):
            raise UsageError(
                "support estimation needs a unit-diagonal kernel; wrap it with normalize()")
        fields["algorithm"] = _score_path(self.filter, self.algorithm)
        fields["tau"] = _check_tau(self.tau)
        if eigenpairs is not None:
            if not isinstance(eigenpairs, SpectralDecomposition):
                raise UsageError(f"eigenpairs must be a SpectralDecomposition, got {eigenpairs!r}")
            if len(eigenpairs.eigenvalues) != self.n:   # a decomposition checks its shapes
                raise UsageError(f"eigenpairs must hold {self.n} eigenvalues, "
                                 f"got {len(eigenpairs.eigenvalues)}")
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
        """The filter's score gains on the spectrum, which a spectral model scores with."""
        return self.filter._score_gains(self.decomposition.eigenvalues)

    @cached_property
    def factor(self):
        """Triangular T with F = ||T K_x||^2, built on first use in place on one
        n x n buffer whose other triangle is scratch: the lower W = L^-1 on the
        ``cholesky`` path, the upper R of ``dgeqrf``, run with its queried
        workspace, on the ``spectral`` one (see the module docstring); ``None``
        for gains with a zero or spread wider than ``MAX_FACTOR_COND``."""
        if self.algorithm == "spectral":
            g = self._gains
            if not (g.min() > 0.0 and g.max() <= g.min() * MAX_FACTOR_COND):
                return None
            A = self.decomposition.eigenvectors * np.sqrt(g / self.n)
            return dgeqrf(A.T, lwork=int(dgeqrf_lwork(self.n, self.n)[0]), overwrite_a=1)[0]
        L = _cholesky(gram(self.kernel, self.points), self.filter.lam)[0]
        W, info = dtrtri(L, lower=1, overwrite_c=1)
        # min and max propagate nan and inf without an n x n mask.
        if info != 0 or not (np.isfinite(W.min()) and np.isfinite(W.max())):
            raise NumericError("inverting the Cholesky factor failed: "
                               "the factorized operator is too ill-conditioned")
        return W


fit = SupportModel


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
    try:   # G is finite by construction, so cho_factor skips its finiteness scan
        return cho_factor(G.T, lower=True, overwrite_a=True, check_finite=False)
    except LinAlgError as exc:
        raise NumericError(f"Cholesky factorization failed: {exc}") from None


def _score_path(family, algorithm):
    """The score path of a filter family (class or spec): its own path for
    None, else ``algorithm`` if it is ``spectral`` or the family's own."""
    if algorithm is None:
        return family.algorithm
    if algorithm == "landweber" and family.name == "landweber":   # an old model file's spelling
        algorithm = "spectral"
    if algorithm not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    if algorithm not in ("spectral", family.algorithm):
        raise UsageError("the cholesky path applies only to the Tikhonov filter")
    return algorithm


def _check_query(X, dim):
    """Query points as an (m, d) array, refused unless d is the model's ``dim``."""
    X = _as_points(X, "query points")
    if X.shape[1] != dim:
        raise DataError(f"query dimension {X.shape[1]} does not match model dimension {dim}")
    return X


def score_batch(model, X):
    """Scores F_n for a batch of query points, clamped to [0, 1]: through the
    model's triangular ``factor`` with w = 1, or through V with w = g(s)/n for
    a model without one."""
    X = _check_query(X, model.dim)
    # The factor before K_x: the other order read 10% more peak RSS on the
    # score-stream.spectral benchmark, from where malloc placed the n x n buffers.
    T = model.factor
    w = model._gains / model.n if T is None else np.ones(model.n)
    return _contract(model, X, T, [w])[0]


def _contract(model, X, T, weights):
    """F = sum_i w_i * Y_i^2 for each weight vector w, one row each, clipped to
    [0, 1]: Y = T K_x in place on the batch's column-major K_x (``dtrmm``) for
    the model's triangular factor T, lower on the ``cholesky`` path and upper
    on the ``spectral`` one, else Y = V' K_x (``dgemm``), squared once.  Every
    sum is scipy's ``dgemv``, which reads the column-major Y without a copy."""
    Kx = cross_gram(model.kernel, model.points, X)
    if T is None:
        Y = dgemm(1.0, model.decomposition.eigenvectors.T, Kx)
    else:
        Y = dtrmm(1.0, T, Kx, lower=int(model.algorithm == "cholesky"), overwrite_b=1)
    np.square(Y, out=Y)
    F = np.empty((len(weights), X.shape[0]))
    for i, w in enumerate(weights):
        F[i] = dgemv(1.0, Y, w, trans=1)
    return np.clip(F, 0.0, 1.0, out=F)


def score(model, x):
    """Score F_n(x) for a single query point."""
    x = real_array("query point must be real numbers", x, data=True)
    if x.ndim != 1:
        raise DataError("score expects a single point, use score_batch for batches")
    return float(score_batch(model, x[None, :])[0])


def member_mask(scores, tau):
    """Threshold scores at 1 - tau with the ``MEMBER_SLACK`` round-off guard."""
    tau = _check_tau(tau)
    scores = real_array("scores contain non-finite values", scores, data=True, finite=True)
    return scores >= 1.0 - tau - MEMBER_SLACK


def predict_member(model, x, tau=None):
    """Membership x in {F_n >= 1 - tau}.  1-d input gives a bool, 2-d a bool array."""
    tau = model.tau if tau is None else _check_tau(tau)
    x = real_array("query points must be real numbers", x, data=True)
    member = member_mask(score_batch(model, x[None, :] if x.ndim == 1 else x), tau)
    return bool(member[0]) if x.ndim == 1 else member


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
    try:
        grid = list(grid)
    except TypeError:
        raise UsageError(f"regularization grid must be a sequence, got {grid!r}") from None
    if not grid:
        raise UsageError("empty regularization grid")
    X = _check_query(X, model.dim)
    filters = [model.filter.at(value) for value in grid]
    s = model.decomposition.eigenvalues
    return _contract(model, X, None, [f._score_gains(s) / model.n for f in filters])


def kpca_lambda_from_rank(decomposition, components):
    """Threshold keeping exactly ``components`` distinct positive eigenvalues.

    Accepts a SpectralDecomposition or a bare eigenvalue vector.  Returns
    the midpoint of the M-th and (M+1)-th distinct positive eigenvalues,
    so small perturbations of the spectrum do not flip the truncation.
    """
    M = KpcaTruncation(components=components).components   # the filter's own count check
    s = getattr(decomposition, "eigenvalues", decomposition)
    distinct = np.unique(real_array("eigenvalues must be real numbers", s))[::-1]
    distinct = distinct[distinct > 0.0]
    if distinct.size < M + 1:
        raise UsageError(
            f"component count {M} needs at least {M + 1} distinct positive "
            f"eigenvalues, the spectrum has {distinct.size}")
    return float((distinct[M - 1] + distinct[M]) / 2.0)
