"""Spectral regularization filters and eigendecomposition of the Gram matrix.

A filter is described by two functions of an eigenvalue sigma in [0, 1]:
the profile r(sigma) actually applied to the spectrum and the gain
g(sigma) = r(sigma) / sigma.  Every family satisfies

* r maps [0, 1] into [0, 1], r(0) = 0, and r does not decrease in sigma,
* r(sigma) -> 1 pointwise as the regularization vanishes,
* r = sigma * g exactly (a few ulps),

and all families except the kPCA truncation are Lipschitz on [0, 1] with
the constant reported by :func:`lipschitz_constant`.  The truncation has a
jump at its threshold, so its constant is ``None``; perturbation bounds
that need a Lipschitz filter do not apply to it.

Each family is declared once, on its spec class (see :class:`Filter`), the
way kernel families are (:class:`.kernels._Spec`); the one spec parser and
formatter of :mod:`.kernels` and the command line read one table of them,
``_FILTERS``.

The eigensolve is ``scipy.linalg.eigh`` with dsyevd, the LAPACK routine
numpy calls too, so that it shares one OpenBLAS and its thread pool with
the factorization, the product V' K_x and the sums in :mod:`.estimator`
(see there why).  Filters act on the spectrum only; no matrix r(K_n/n) or
g(K_n/n) is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh

from .errors import NumericError, UsageError
from .kernels import _Spec, _format_spec, _parse_spec

# Eigenvalues of K_n/n may stray outside [0, 1] by round-off; values within
# this slack are clamped, values beyond it are an error.
EIG_SLACK = 1e-8

# Eigenvalues of K_n/n at or below this floor are exact nulls: the cutoff
# score gives them gain 0, as the pseudo-inverse limit lambda -> 0 does, not
# the huge 1/sigma of a round-off eigenvalue of a singular Gram; the
# curvature heuristic and the command line's positive count skip them.
NULL_EIG = 1e-12

__all__ = [
    "Filter", "Tikhonov", "SpectralCutoff", "Landweber", "KpcaTruncation",
    "SpectralDecomposition", "r_value", "g_value", "lipschitz_constant",
    "decompose", "spectrum", "parse_filter",
    "format_filter", "EIG_SLACK",
]


def _check_lam(lam):
    if not np.isfinite(lam) or lam <= 0:
        raise UsageError(f"regularization parameter must be positive and finite, got {lam!r}")
    if 1.0 / float(lam) == np.inf:
        raise UsageError(f"regularization parameter {lam!r} is so small that 1/lambda overflows")
    return float(lam)


@dataclass(frozen=True)
class Filter(_Spec):
    """Base class for filter specs (see :class:`.kernels._Spec`).

    ``algorithm`` is the score path a family owns and fits through by
    default.  ``_r``/``_g`` evaluate r and g on a clamped spectrum,
    ``lipschitz()`` is r's Lipschitz constant or ``None``, and the class
    method ``at(value)`` builds the family's filter at a given strength.
    """

    algorithm = "spectral"

    @classmethod
    def at(cls, value):
        return cls(float(value))


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
        return s / (s + self.lam)

    def _g(self, s):
        return 1.0 / (s + self.lam)


class SpectralCutoff(_Threshold):
    """r(s) = 1 above lam, s / lam at or below; g(s) = 1/s resp. 1/lam."""

    name = "cutoff"

    def _r(self, s):
        return np.where(s > self.lam, 1.0, s / self.lam)

    def _g(self, s):
        out = np.full_like(s, 1.0 / self.lam)
        above = s > self.lam
        out[above] = 1.0 / s[above]
        return out


@dataclass(frozen=True)
class Landweber(Filter):
    """g(s) = sum_{k<=m} (1-s)^k after m+1 gradient steps; r(s) = 1 - (1-s)^(m+1).

    The role of the vanishing regularization parameter is played by
    1 / (m + 1), which is also the Lipschitz constant's reciprocal.
    """

    iterations: int

    name = "landweber"
    keys = {"m": "iterations"}
    algorithm = "landweber"

    def __post_init__(self):
        m = self.iterations
        if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 0:
            raise UsageError(f"iteration count must be a nonnegative integer, got {m!r}")
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
            c = self.components
            if not isinstance(c, (int, np.integer)) or isinstance(c, bool) or c < 1:
                raise UsageError(f"component count must be a positive integer, got {c!r}")
            object.__setattr__(self, "components", int(c))

    def _kept(self, s):
        if self.lam is None:
            raise UsageError(
                "kpca truncation by component count has no threshold yet; "
                "fitting resolves it against the spectrum (kpca_lambda_from_rank)")
        return s >= self.lam

    def _r(self, s):
        return self._kept(s).astype(float)

    def _g(self, s):
        out = np.zeros_like(s)
        kept = self._kept(s)   # threshold > 0, so kept entries are positive
        out[kept] = 1.0 / s[kept]
        return out

    def lipschitz(self):
        return None


_FILTERS = {f.name: f for f in (Tikhonov, SpectralCutoff, Landweber, KpcaTruncation)}


def _known(f):
    """``f`` itself if it is a spec of a declared family, else a usage error."""
    if not isinstance(f, Filter) or f.name not in _FILTERS:
        raise UsageError(f"unknown filter {f!r}")
    return f


def _prep_spectrum(sigma):
    shape = np.shape(sigma)
    s = np.atleast_1d(np.asarray(sigma, dtype=float))
    if not np.all(np.isfinite(s)):
        raise UsageError("filter argument contains non-finite values")
    if np.any(s < -EIG_SLACK) or np.any(s > 1.0 + EIG_SLACK):
        raise UsageError("filter argument outside [0, 1] beyond tolerance")
    return np.clip(s, 0.0, 1.0), shape


def r_value(f, sigma):
    """Filter profile r(sigma); scalar in, scalar out, arrays vectorized."""
    s, shape = _prep_spectrum(sigma)
    r = _known(f)._r(s)
    return float(r[0]) if shape == () else r.reshape(shape)


def g_value(f, sigma):
    """Filter gain g(sigma) = r(sigma) / sigma extended continuously to 0."""
    s, shape = _prep_spectrum(sigma)
    g = _known(f)._g(s)
    return float(g[0]) if shape == () else g.reshape(shape)


def lipschitz_constant(f):
    """Lipschitz constant of r on [0, 1], or None for the kPCA truncation."""
    return _known(f).lipschitz()


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenpairs of K_n / n, eigenvalues descending and clamped to [0, 1]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _eig(g, vectors):
    """Descending eigenvalues of K_n/n clamped to [0, 1], and eigenvectors if asked."""
    A = np.asarray(g, dtype=float) / len(g)
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
    return np.ascontiguousarray(np.clip(s, 0.0, 1.0)), V


def decompose(g):
    """Eigendecomposition of K_n / n for a Gram matrix.

    One O(n^3) factorization; everything downstream (scores at any
    regularization strength, filter application, threshold selection) is
    O(n^2) or cheaper per use.  It overwrites one scaled copy of ``g``, whose
    upper triangle it reads (the whole matrix: :func:`.gram` builds it
    exactly symmetric), and needs LAPACK's 2 n^2 of workspace besides.
    """
    s, V = _eig(g, vectors=True)
    return SpectralDecomposition(s, np.ascontiguousarray(V[:, ::-1]))


def spectrum(g):
    """Eigenvalues of K_n/n as :func:`decompose` gives them, at about half its
    cost and in place in the same way, with O(n) workspace besides."""
    return _eig(g, vectors=False)[0]


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
