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
never factorizes, and Y = T K_x is one triangular product (``dtrmm``) per
tile of ``SCORE_TILE`` queries, in place on the tile's own K_x, which
``cross_gram`` returns column-major, so it copies nothing.  One tile is alive
at a time, so a score's memory does not grow with the query count.  The score
path names the factor:

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

Building either factor drops the decomposition, so a scored model holds one
n x n array, its factor; a later read of the decomposition solves it again.

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

from collections.abc import Mapping, Set
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

# Queries scored per tile: a score's memory stays near 2 n * SCORE_TILE doubles for
# any query count.  Fixed: a width from n (262 at n = 1000) moved scores by 3.3e-16.
SCORE_TILE = 256


def _check_tau(tau):
    """``tau`` as a float in [0, 1); anything else, a non-number too, is a usage error."""
    check_number("tau must lie in [0, 1)", tau, ok=lambda v: 0 <= v < 1)
    return float(tau)


@dataclass(frozen=True, eq=False)
class SupportModel:
    """A support model fitted to a sample: :func:`fit` is this constructor.

    Construction checks every argument, keeps a read-only copy of the points
    and solves nothing but the spectrum a kPCA component count needs.  The
    model builds the rest itself on first use: the ``decomposition``
    (seeded by ``eigenpairs``) and the ``factor`` it scores through.  Building
    the factor drops the decomposition, which a later read
    (``regularization_path``, a save that stores it) solves again; a model
    without a factor scores through the decomposition and keeps it.  No model
    holds a Gram: each solve starts from a fresh ``gram(kernel, points)``.

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
                lam=kpca_lambda_from_rank(self.decomposition.eigenvalues, self.filter.components))

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    @cached_property
    def decomposition(self):
        """Eigendecomposition of K_n/n: ``eigenpairs``, else solved on first read,
        in place on a fresh Gram: 3 n^2 at the peak, that Gram and dsyevd's workspace.
        Kept until a ``factor`` is built, which drops it; a read after that
        solves it again from the Gram, ``eigenpairs`` given or not."""
        return decompose(gram(self.kernel, self.points))

    @cached_property
    def factor(self):
        """Triangular T with F = ||T K_x||^2, built on first use in place on one
        n x n buffer whose other triangle is scratch: the lower W = L^-1 on the
        ``cholesky`` path, the upper R of ``dgeqrf``, run with its queried
        workspace, on the ``spectral`` one (see the module docstring); ``None``
        for gains with a zero or spread wider than ``MAX_FACTOR_COND``.  Once T
        is built the model keeps it alone and drops the decomposition."""
        if self.algorithm == "spectral":
            g = self.filter._score_gains(self.decomposition.eigenvalues)
            if not (g.min() > 0.0 and g.max() <= g.min() * MAX_FACTOR_COND):
                return None
            A = self.decomposition.eigenvectors * np.sqrt(g / self.n)
            T = dgeqrf(A.T, lwork=int(dgeqrf_lwork(self.n, self.n)[0]), overwrite_a=1)[0]
        else:
            L = _cholesky(gram(self.kernel, self.points), self.filter.lam)[0]
            T, info = dtrtri(L, lower=1, overwrite_c=1)
            # min and max propagate nan and inf without an n x n mask.
            if info != 0 or not (np.isfinite(T.min()) and np.isfinite(T.max())):
                raise NumericError("inverting the Cholesky factor failed: "
                                   "the factorized operator is too ill-conditioned")
        vars(self).pop("decomposition", None)   # T is all a score reads
        return T


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
    if not isinstance(algorithm, str):
        raise UsageError(f"algorithm must be None or a str, got {algorithm!r}")
    if algorithm == "landweber" and family.name == "landweber":   # an old model file's spelling
        algorithm = "spectral"
    if algorithm not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    if algorithm not in ("spectral", family.algorithm):
        raise UsageError("the cholesky path applies only to the Tikhonov filter")
    return algorithm


def _model(model):
    """``model`` if it is a fitted support model; anything else is a usage error."""
    if not isinstance(model, SupportModel):
        raise UsageError(f"model must be a SupportModel, got {model!r}")
    return model


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
    X = _check_query(X, _model(model).dim)
    # The factor before K_x: the other order read 10% more peak RSS on the
    # score-stream.spectral benchmark, from where malloc placed the n x n buffers.
    T = model.factor
    w = (np.ones(model.n) if T is not None
         else model.filter._score_gains(model.decomposition.eigenvalues) / model.n)
    return _contract(model, X, T, [w])[0]


def _contract(model, X, T, weights):
    """F = sum_i w_i * Y_i^2 for each weight vector w, one row each, clipped to
    [0, 1] once at the end.  The queries go in tiles of ``SCORE_TILE`` = 256
    columns, one alive at a time, so the cross-Gram and BLAS's packed copy of
    it stay near n x 256: Y = T K_x in place on the tile's column-major K_x
    (``dtrmm``) for the model's triangular factor T, lower on ``cholesky`` and
    upper on ``spectral``, else Y = V' K_x (``dgemm``), squared once.  Every
    sum is scipy's ``dgemv``, on Y without a copy, into the tile's columns of F."""
    F = np.empty((len(weights), X.shape[0]))
    for j in range(0, X.shape[0], SCORE_TILE):
        Kx = cross_gram(model.kernel, model.points, X[j:j + SCORE_TILE])
        if T is None:
            Y = dgemm(1.0, model.decomposition.eigenvectors.T, Kx)
        else:
            Y = dtrmm(1.0, T, Kx, lower=int(model.algorithm == "cholesky"), overwrite_b=1)
        np.square(Y, out=Y)
        for i, w in enumerate(weights):
            F[i, j:j + SCORE_TILE] = dgemv(1.0, Y, w, trans=1)
        del Kx, Y   # free the tile before the next one is built
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
    tau = _model(model).tau if tau is None else _check_tau(tau)
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
    iteration counts (Landweber), matching the model's filter family, in a
    list, tuple, range or 1-d array; text, bytes (a sequence of small
    integers) and an unordered set or mapping are refused.
    Returns an array of shape (len(grid), len(X)).
    """
    try:
        if isinstance(grid, (str, bytes, bytearray, Set, Mapping)):   # no ordered strengths
            raise TypeError
        grid = list(grid)
    except TypeError:
        raise UsageError(f"regularization grid must be a sequence, got {grid!r}") from None
    if not grid:
        raise UsageError("empty regularization grid")
    X = _check_query(X, _model(model).dim)
    filters = [type(model.filter)(value) for value in grid]
    s = model.decomposition.eigenvalues
    return _contract(model, X, None, [f._score_gains(s) / model.n for f in filters])


def kpca_lambda_from_rank(eigenvalues, components):
    """Threshold keeping exactly ``components`` distinct positive eigenvalues.

    Returns the midpoint of the M-th and (M+1)-th distinct positive eigenvalues,
    so small perturbations of the spectrum do not flip the truncation.
    """
    M = KpcaTruncation(components=components).components   # the filter's own count check
    distinct = np.unique(real_array("eigenvalues must be real numbers", eigenvalues))[::-1]
    distinct = distinct[distinct > 0.0]
    if distinct.size < M + 1:
        raise UsageError(
            f"component count {M} needs at least {M + 1} distinct positive "
            f"eigenvalues, the spectrum has {distinct.size}")
    return float((distinct[M - 1] + distinct[M]) / 2.0)
