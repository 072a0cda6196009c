"""Spectral regularization filters and eigendecomposition of the Gram matrix.

A filter is described by two functions of an eigenvalue sigma in [0, 1]:
the profile r(sigma) actually applied to the spectrum and the gain
g(sigma) = r(sigma) / sigma.  Every family satisfies

* r maps [0, 1] into [0, 1] and r(0) = 0,
* r(sigma) -> 1 pointwise as the regularization vanishes,
* r = sigma * g exactly (a few ulps),

and all families except the kPCA truncation are Lipschitz on [0, 1] with
the constant reported by :func:`lipschitz_constant`.  The truncation has a
jump at its threshold, so its constant is ``None``; perturbation bounds
that need a Lipschitz filter do not apply to it.

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
from .kernels import GramMatrix, _parse_float, _parse_kv

# Eigenvalues of K_n/n may stray outside [0, 1] by round-off; values within
# this slack are clamped, values beyond it are an error.
EIG_SLACK = 1e-8

__all__ = [
    "Filter", "Tikhonov", "SpectralCutoff", "Landweber", "KpcaTruncation",
    "SpectralDecomposition", "r_value", "g_value", "lipschitz_constant",
    "decompose", "spectrum", "parse_filter",
    "format_filter", "EIG_SLACK",
]


def _check_lam(lam):
    if not np.isfinite(lam) or lam <= 0:
        raise UsageError(f"regularization parameter must be positive and finite, got {lam!r}")
    return float(lam)


@dataclass(frozen=True)
class Filter:
    """Base class for filter specs."""


@dataclass(frozen=True)
class Tikhonov(Filter):
    """r(s) = s / (s + lam), g(s) = 1 / (s + lam)."""

    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_lam(self.lam))


@dataclass(frozen=True)
class SpectralCutoff(Filter):
    """r(s) = 1 above lam, s / lam at or below; g(s) = 1/s resp. 1/lam."""

    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_lam(self.lam))


@dataclass(frozen=True)
class Landweber(Filter):
    """g(s) = sum_{k<=m} (1-s)^k after m+1 gradient steps; r(s) = 1 - (1-s)^(m+1).

    The role of the vanishing regularization parameter is played by
    1 / (m + 1), which is also the Lipschitz constant's reciprocal.
    """

    iterations: int

    def __post_init__(self):
        m = self.iterations
        if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 0:
            raise UsageError(f"iteration count must be a nonnegative integer, got {m!r}")
        object.__setattr__(self, "iterations", int(m))


@dataclass(frozen=True)
class KpcaTruncation(Filter):
    """Projection onto eigenspaces with eigenvalue >= lam (threshold included).

    Either a threshold ``lam`` or a component count is given.  A count is
    resolved to a threshold against a concrete spectrum when a model is
    fit; until then r/g are undefined.  Not Lipschitz.
    """

    lam: float = None
    components: int = None

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


def _kpca_lam(f):
    if f.lam is None:
        raise UsageError(
            "kpca truncation by component count has no threshold yet; "
            "fitting resolves it against the spectrum (kpca_lambda_from_rank)")
    return f.lam


def _prep_spectrum(sigma):
    shape = np.shape(sigma)
    s = np.atleast_1d(np.asarray(sigma, dtype=float))
    if not np.all(np.isfinite(s)):
        raise UsageError("filter argument contains non-finite values")
    if np.any(s < -EIG_SLACK) or np.any(s > 1.0 + EIG_SLACK):
        raise UsageError("filter argument outside [0, 1] beyond tolerance")
    return np.clip(s, 0.0, 1.0), shape


def _landweber_g(s, m):
    # sum_{k=0}^{m} (1-s)^k, evaluated as -expm1((m+1) log1p(-s)) / s.
    # Full relative precision for every s in (0, 1]; the limit m+1 at s=0.
    out = np.full_like(s, float(m + 1))
    pos = s > 0
    with np.errstate(divide="ignore"):
        t = (m + 1) * np.log1p(-s[pos])
    out[pos] = -np.expm1(t) / s[pos]
    return out


def _r(f, s):
    if isinstance(f, Tikhonov):
        return s / (s + f.lam)
    if isinstance(f, SpectralCutoff):
        return np.where(s > f.lam, 1.0, s / f.lam)
    if isinstance(f, Landweber):
        # r = s * g keeps the consistency identity exact; the product can
        # overshoot 1.0 by an ulp, clamp it.
        return np.minimum(s * _landweber_g(s, f.iterations), 1.0)
    if isinstance(f, KpcaTruncation):
        return (s >= _kpca_lam(f)).astype(float)
    raise UsageError(f"unknown filter {f!r}")


def _g(f, s):
    if isinstance(f, Tikhonov):
        return 1.0 / (s + f.lam)
    if isinstance(f, SpectralCutoff):
        out = np.full_like(s, 1.0 / f.lam)
        above = s > f.lam
        out[above] = 1.0 / s[above]
        return out
    if isinstance(f, Landweber):
        return _landweber_g(s, f.iterations)
    if isinstance(f, KpcaTruncation):
        out = np.zeros_like(s)
        kept = s >= _kpca_lam(f)   # threshold > 0, so kept entries are positive
        out[kept] = 1.0 / s[kept]
        return out
    raise UsageError(f"unknown filter {f!r}")


def r_value(f, sigma):
    """Filter profile r(sigma); scalar in, scalar out, arrays vectorized."""
    s, shape = _prep_spectrum(sigma)
    r = _r(f, s)
    return float(r[0]) if shape == () else r.reshape(shape)


def g_value(f, sigma):
    """Filter gain g(sigma) = r(sigma) / sigma extended continuously to 0."""
    s, shape = _prep_spectrum(sigma)
    g = _g(f, s)
    return float(g[0]) if shape == () else g.reshape(shape)


def lipschitz_constant(f):
    """Lipschitz constant of r on [0, 1], or None for the kPCA truncation."""
    if isinstance(f, (Tikhonov, SpectralCutoff)):
        return 1.0 / f.lam
    if isinstance(f, Landweber):
        return float(f.iterations + 1)
    if isinstance(f, KpcaTruncation):
        return None
    raise UsageError(f"unknown filter {f!r}")


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenpairs of K_n / n, eigenvalues descending and clamped to [0, 1]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self):
        return self.eigenvalues.shape[0]


def _eig(g, vectors):
    """Descending eigenvalues of K_n/n clamped to [0, 1], and eigenvectors if asked."""
    A = g.entries if isinstance(g, GramMatrix) else np.asarray(g, dtype=float)
    A = A / A.shape[0]
    # LAPACK may return finite eigenvalues for a matrix holding a NaN, so
    # the entries are checked, not the spectrum.
    if not np.all(np.isfinite(A)):
        raise NumericError("K_n/n has non-finite entries, so its spectrum is not finite")
    try:
        out = eigh(A, eigvals_only=not vectors, driver="evd", check_finite=False)
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
    """Eigendecomposition of K_n / n for a Gram matrix (or raw array).

    One O(n^3) factorization; everything downstream (scores at any
    regularization strength, filter application, threshold selection) is
    O(n^2) or cheaper per use.
    """
    s, V = _eig(g, vectors=True)
    return SpectralDecomposition(s, np.ascontiguousarray(V[:, ::-1]))


def spectrum(g):
    """Eigenvalues of K_n/n as :func:`decompose` gives them, at about half its cost."""
    return _eig(g, vectors=False)[0]


# ---------------------------------------------------------------------------
# Text form.  Examples:
#   filter=tikhonov lambda=0.001
#   filter=cutoff lambda=1e-06
#   filter=landweber m=50
#   filter=kpca components=5


def format_filter(f, prefix=True):
    """Serialize a filter spec to its text form."""
    head = "filter=" if prefix else ""
    if isinstance(f, Tikhonov):
        return f"{head}tikhonov lambda={f.lam!r}"
    if isinstance(f, SpectralCutoff):
        return f"{head}cutoff lambda={f.lam!r}"
    if isinstance(f, Landweber):
        return f"{head}landweber m={f.iterations}"
    if isinstance(f, KpcaTruncation):
        if f.lam is not None:
            return f"{head}kpca lambda={f.lam!r}"
        return f"{head}kpca components={f.components}"
    raise UsageError(f"cannot serialize filter {f!r}")


def parse_filter(text):
    """Parse the text form produced by :func:`format_filter`."""
    body = text.strip()
    if body.startswith("filter="):
        body = body[len("filter="):]
    tokens = [t for t in body.split() if t]
    if not tokens:
        raise UsageError("empty filter spec")
    name = tokens[0]
    kvs = _parse_kv(tokens[1:], {"lambda", "m", "components"}, "filter")

    def need_float(key):
        if key not in kvs:
            raise UsageError(f"filter {name!r} needs {key}=")
        return _parse_float(kvs.pop(key), key)

    def need_int(key):
        raw = kvs.pop(key)
        try:
            return int(raw)
        except ValueError:
            raise UsageError(f"bad {key}: {raw!r}") from None

    if name == "tikhonov":
        out = Tikhonov(need_float("lambda"))
    elif name == "cutoff":
        out = SpectralCutoff(need_float("lambda"))
    elif name == "landweber":
        if "m" not in kvs:
            raise UsageError("filter 'landweber' needs m=")
        out = Landweber(need_int("m"))
    elif name == "kpca":
        if "lambda" in kvs:
            out = KpcaTruncation(lam=need_float("lambda"))
        elif "components" in kvs:
            out = KpcaTruncation(components=need_int("components"))
        else:
            raise UsageError("filter 'kpca' needs lambda= or components=")
    else:
        raise UsageError(f"unknown filter {name!r}")
    if kvs:
        raise UsageError(f"unknown filter option {next(iter(kvs))!r}")
    return out
