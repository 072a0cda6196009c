"""Spectral regularization filters and eigendecomposition of the Gram matrix.

A filter is described by two functions of an eigenvalue sigma in [0, 1]:
the profile r(sigma) actually applied to the spectrum and the gain
g(sigma) = r(sigma) / sigma.  Every family satisfies

* r maps [0, 1] into [0, 1], r(0) = 0, and r does not decrease in sigma,
* r(sigma) -> 1 pointwise as the regularization vanishes,
* r = sigma * g exactly (a few ulps),

and all families except the kPCA truncation are Lipschitz on [0, 1] with
the constant reported by ``lipschitz()``.  The truncation has a jump at its
threshold, so its constant is ``None``; perturbation bounds that need a
Lipschitz filter do not apply to it.  ``f.r`` and ``f.g`` check their
argument; the score paths call ``_r``/``_g`` on a spectrum already clamped.

Each family is declared once, on its spec class (see :class:`Filter`), the
way kernel families are (:class:`.kernels._Spec`); the one spec parser and
formatter of :mod:`.kernels` and the command line read one table of them,
``_FILTERS``.

The eigensolve is ``scipy.linalg.eigh`` with dsyevd, the LAPACK routine
numpy calls too, so that it shares one OpenBLAS and its thread pool with
the factorization, the product V' K_x and the sums in :mod:`.estimator`
(see there why).  Filters act on the spectrum only; no matrix r(K_n/n) or
g(K_n/n) is ever formed.

The public :func:`decompose` and :func:`spectrum` leave the caller's Gram
as it was: they solve a scaled copy, one n^2 besides dsyevd's 2 n^2 of
workspace (O(n) for the eigenvalues alone).  The library's own solves (a
model's ``decomposition``, the command line's builds) hand over a Gram
built for the solve, which is divided in place into K_n/n, bit for bit the
copy, and solved on: 3 n^2 in all for the eigenpairs, 1 n^2 for the
eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh

from .errors import NumericError, UsageError, check_number, real_array
from .kernels import _Spec, _format_spec, _parse_spec

# Eigenvalues of K_n/n may stray outside [0, 1] by round-off; values within
# this slack are clamped, values beyond it are an error.
EIG_SLACK = 1e-8

# Eigenvalues of K_n/n at or below this floor are exact nulls: the cutoff's
# score gains (``SpectralCutoff._score_gains``) give them gain 0, as the
# pseudo-inverse limit lambda -> 0 does, not the 1/lambda of a round-off
# eigenvalue of a singular Gram; the curvature heuristic and the command
# line's positive count skip them.
NULL_EIG = 1e-12

__all__ = [
    "Filter", "Tikhonov", "SpectralCutoff", "Landweber", "KpcaTruncation",
    "SpectralDecomposition", "decompose", "spectrum", "parse_filter",
    "format_filter", "EIG_SLACK",
]


def _check_lam(lam):
    check_number("regularization parameter must be positive and finite", lam,
                 ok=lambda v: 0 < v < np.inf)
    if 1.0 / float(lam) == np.inf:
        raise UsageError(f"regularization parameter {lam!r} is so small that 1/lambda overflows")
    return float(lam)


@dataclass(frozen=True)
class Filter(_Spec):
    """Base class for filter specs (see :class:`.kernels._Spec`).

    ``algorithm`` is the score path a family owns and fits through by
    default.  A family declares ``_r``/``_g``, r and g on a clamped
    spectrum, ``lipschitz()``, r's Lipschitz constant or ``None``, and
    ``at(value)``, which builds the family's filter at a given strength.
    """

    algorithm = "spectral"

    @classmethod
    def at(cls, value):
        return cls(value)

    def r(self, sigma):
        """Profile r(sigma); scalar in, scalar out, arrays vectorized."""
        return _on_unit_interval(self._r, sigma)

    def g(self, sigma):
        """Gain g(sigma) = r(sigma) / sigma extended continuously to 0."""
        return _on_unit_interval(self._g, sigma)

    def _score_gains(self, s):
        """The gains a score weights the clamped spectrum ``s`` with: g(s)."""
        return self._g(s)


def _on_unit_interval(evaluate, sigma):
    """``evaluate`` on real ``sigma`` within ``EIG_SLACK`` of [0, 1], clamped
    to [0, 1]; anything else, nan and inf too, is a usage error."""
    s = real_array("filter argument must be real numbers", sigma)
    out = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all((out >= -EIG_SLACK) & (out <= 1.0 + EIG_SLACK)):   # nan fails both
        raise UsageError("filter argument is not finite or lies outside [0, 1] beyond tolerance")
    out = evaluate(np.clip(out, 0.0, 1.0))
    return float(out[0]) if s.ndim == 0 else out.reshape(s.shape)


@dataclass(frozen=True)
class _Threshold(Filter):
    """A family regularized by one threshold ``lam``, Lipschitz with constant 1/lam."""

    lam: float

    keys = {"lambda": "lam"}

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_lam(self.lam))

    def lipschitz(self):
        return 1.0 / self.lam


class Tikhonov(_Threshold):
    """r(s) = s / (s + lam), g(s) = 1 / (s + lam)."""

    name = "tikhonov"
    algorithm = "cholesky"

    def _r(self, s):
        # 1 / (1 + lam/s) never decreases in s once rounded, which s / (s + lam)
        # does not promise; s / lam where lam/s leaves the float range; r(0) = 0.
        with np.errstate(divide="ignore", over="ignore"):
            x = self.lam / s
            return np.where(np.isfinite(x), 1.0 / (1.0 + x), s / self.lam)

    def _g(self, s):
        return 1.0 / (s + self.lam)


class SpectralCutoff(_Threshold):
    """r(s) = 1 above lam, s / lam at or below; g(s) = 1/s resp. 1/lam."""

    name = "cutoff"

    def _r(self, s):
        return np.where(s > self.lam, 1.0, s / self.lam)

    def _g(self, s):
        return 1.0 / np.maximum(s, self.lam)

    def _score_gains(self, s):
        # Gain 0 at exact nulls (see NULL_EIG).  g keeps 1/lam there, since
        # r = s * g must hold, and an r zeroed there would jump at NULL_EIG.
        return np.where(s > NULL_EIG, self._g(s), 0.0)


@dataclass(frozen=True)
class Landweber(Filter):
    """g(s) = sum_{k<=m} (1-s)^k after m+1 gradient steps; r(s) = 1 - (1-s)^(m+1).

    The role of the vanishing regularization parameter is played by
    1 / (m + 1), which is also the Lipschitz constant's reciprocal.
    """

    iterations: int

    name = "landweber"
    keys = {"m": "iterations"}

    def __post_init__(self):
        m = self.iterations
        check_number("iteration count must be a nonnegative integer", m,
                     ok=lambda v: v >= 0, integral=True)
        if m >= 2 ** 1023:   # r and g evaluate m + 1 as a float
            raise UsageError(f"iteration count must be below 2**1023, got {m!r}")
        object.__setattr__(self, "iterations", int(m))

    def _r(self, s):
        # -expm1((m+1) log1p(-s)): full relative precision, at most 1, and
        # non-decreasing in s, which s * g rounded is not.
        with np.errstate(divide="ignore"):
            return -np.expm1((self.iterations + 1) * np.log1p(-s))

    def _g(self, s):
        # r(s) / s, with its limit m+1 at s=0.
        out = np.full_like(s, float(self.iterations + 1))
        pos = s > 0
        out[pos] = self._r(s[pos]) / s[pos]
        return out

    def lipschitz(self):
        return float(self.iterations + 1)

    @classmethod
    def at(cls, value):
        integral = isinstance(value, (float, np.floating)) and value.is_integer()
        return Landweber(int(value) if integral else value)


@dataclass(frozen=True)
class KpcaTruncation(Filter):
    """Projection onto eigenspaces with eigenvalue >= lam (threshold included).

    Either a threshold ``lam`` or a component count is given.  A count is
    resolved to a threshold against a concrete spectrum when a model is
    fit; until then r/g are undefined.  Not Lipschitz.
    """

    lam: float = None
    components: int = None

    name = "kpca"
    keys = {"lambda": "lam", "components": "components"}

    def __post_init__(self):
        if (self.lam is None) == (self.components is None):
            raise UsageError("kpca truncation needs exactly one of lam= or components=")
        if self.lam is not None:
            object.__setattr__(self, "lam", _check_lam(self.lam))
        else:
            check_number("component count must be a positive integer", self.components,
                         ok=lambda v: v >= 1, integral=True)
            object.__setattr__(self, "components", int(self.components))

    def _kept(self, s):
        if self.lam is None:
            raise UsageError(
                "kpca truncation by component count has no threshold yet; "
                "fitting resolves it against the spectrum (kpca_lambda_from_rank)")
        return s >= self.lam

    def _r(self, s):
        return self._kept(s).astype(float)

    def _g(self, s):
        # r / s, with s floored at lam where r is 0 anyway
        return self._r(s) / np.maximum(s, self.lam)

    def lipschitz(self):
        return None


_FILTERS = {f.name: f for f in (Tikhonov, SpectralCutoff, Landweber, KpcaTruncation)}


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenpairs of K_n / n, eigenvalues descending and clamped to [0, 1].

    Construction checks only the form: k eigenvalues and a k x k eigenvector
    matrix, both real arrays (an array is not copied); their values are trusted.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        what = "eigenpairs must be k eigenvalues and a k x k eigenvector matrix"
        fields = vars(self)   # frozen: a checked field goes straight into the instance
        fields["eigenvalues"] = s = real_array(f"{what} of real numbers", self.eigenvalues)
        fields["eigenvectors"] = V = real_array(f"{what} of real numbers", self.eigenvectors)
        if s.ndim != 1 or V.shape != s.shape * 2:
            raise UsageError(f"{what}, got shapes {s.shape} and {V.shape}")


def _eig(A, vectors):
    """Eigenpairs of K_n/n, or its eigenvalues alone, solved in place on ``A``,
    which holds K_n/n and is overwritten: eigenvalues descending and clamped
    to [0, 1]."""
    # LAPACK may return finite eigenvalues for a matrix holding a NaN, so
    # the entries are checked, not the spectrum.
    if not np.all(np.isfinite(A)):
        raise NumericError("K_n/n has non-finite entries, so its spectrum is not finite")
    # In place on A's Fortran view A.T, which equals A: a Gram is exactly
    # symmetric by construction (see :mod:`.kernels`).
    try:
        out = eigh(A.T, overwrite_a=True, eigvals_only=not vectors, driver="evd",
                   check_finite=False)
    except LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from None
    s, V = out if vectors else (out, None)
    s = s[::-1]
    if s[-1] < -EIG_SLACK or s[0] > 1.0 + EIG_SLACK:
        raise NumericError(
            "spectrum of K_n/n outside [0, 1] beyond tolerance; "
            "the kernel is not unit-diagonal PSD")
    s = np.ascontiguousarray(np.clip(s, 0.0, 1.0))
    return SpectralDecomposition(s, np.ascontiguousarray(V[:, ::-1])) if vectors else s


def decompose(g):
    """Eigendecomposition of K_n / n for a Gram matrix, which it leaves as it was.

    One O(n^3) factorization; everything downstream (scores at any
    regularization strength, filter application, threshold selection) is
    O(n^2) or cheaper per use.  It overwrites one scaled copy of ``g``, whose
    upper triangle it reads (the whole matrix: :func:`.gram` builds it
    exactly symmetric), and needs LAPACK's 2 n^2 of workspace besides.
    """
    return _eig(_scaled_copy(g), vectors=True)


def spectrum(g):
    """Eigenvalues of K_n/n as :func:`decompose` gives them, at about half its
    cost, on a scaled copy of ``g`` in the same way, with O(n) workspace besides."""
    return _eig(_scaled_copy(g), vectors=False)


def _scaled_copy(g):
    """K_n/n as a copy of the Gram ``g``, a nonempty square real matrix."""
    g = real_array("a Gram matrix must be real numbers", g)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.size == 0:
        raise UsageError(f"a Gram matrix must be nonempty and square, got shape {g.shape}")
    return np.asarray(g, dtype=float) / len(g)


def _decompose_in_place(G):
    """:func:`decompose` of a float64 Gram that the caller built for it and
    drops: K_n/n is ``G`` divided in place, bit for bit the scaled copy, so the
    solve needs no n^2 beyond G and LAPACK's workspace.  ``G`` is spent."""
    return _eig(np.divide(G, len(G), out=G), vectors=True)


def _spectrum_in_place(G):
    """:func:`spectrum` of a Gram that the caller drops, in place as
    :func:`_decompose_in_place` solves: no n^2 beyond ``G``."""
    return _eig(np.divide(G, len(G), out=G), vectors=False)


# ---------------------------------------------------------------------------
# Text form.  Examples:
#   filter=tikhonov lambda=0.001
#   filter=cutoff lambda=1e-06
#   filter=landweber m=50
#   filter=kpca components=5


def format_filter(f, prefix=True):
    """Serialize a filter spec to its text form."""
    return _format_spec(f, "filter", _FILTERS, prefix)


def parse_filter(text):
    """Parse the text form produced by :func:`format_filter`."""
    return _parse_spec(text, "filter", _FILTERS)
