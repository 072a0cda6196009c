"""Operator-level identities, error-bound calculators and their Monte-Carlo checks.

Nothing here scores points.  The module gives exact finite realizations
of what the theory argues about, for tests to compare the estimator with:

* the empirical integral operator T_n = (1/n) sum K_{x_i} (x) K_{x_i},
  given as (kernel, points) like ``gram``; its Hilbert-Schmidt norms and
  distances are sums of squared kernel values, taken over cache-sized tiles
  that the calling thread shares with one helper thread per further usable
  core, and added in tile order, so the sums do not depend on the core count,
* bound formulas (concentration, sample, approximation, finite-sample),
* seeded Monte-Carlo harnesses that report observed-vs-bound tables.

The true operator T is never formed; a large reference sample stands in
for it, and the harness reports that substitution's own error bound.
"""

from __future__ import annotations

import itertools
import numbers
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import NumericError, UsageError
from .kernels import _as_points, _point_pair

__all__ = [
    "hs_norm", "hs_distance",
    "concentration_bound", "effective_dimension", "sample_error_bound",
    "approximation_error_bound", "finite_sample_bound", "bernstein_bound",
    "concentration_trials", "bernstein_trials",
]

TILE = 256  # tile edge of the Gram-square sums; such a tile stays in cache

# Sub-stream index reserved for the reference sample of a harness; trial
# streams use [seed, trial] with trial < 2^31.
_REF_STREAM = 2 ** 31


def _cores():
    """Cores this process may run on (the affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_tiles(fn, items):
    """[fn(x) for x in items], shared by the caller and one helper per further core.

    cdist and exp release the GIL, so tiles run in parallel.  Items go out
    through a shared counter and each result lands at its item's index; an
    error in any thread reaches the caller after every helper has stopped.
    """
    items = list(items)
    out = [None] * len(items)
    ticket = itertools.count()

    def work():
        while (k := next(ticket)) < len(items):
            out[k] = fn(items[k])

    helpers = min(_cores(), len(items)) - 1
    if helpers < 1:
        work()
        return out
    with ThreadPoolExecutor(helpers) as pool:
        futures = [pool.submit(work) for _ in range(helpers)]
        work()
        for f in futures:
            f.result()
    return out


def _self_sum(kernel, X):
    """sum_ij K(x_i, x_j)^2; K is symmetric, so only upper-triangle tiles."""
    def tile(ij):
        i, j = ij
        M = kernel._pairwise(X[i:i + TILE], X[j:j + TILE])
        return (1.0 if i == j else 2.0) * float(np.einsum("ij,ij->", M, M))

    n = X.shape[0]
    total = 0.0  # added in tile order; sum() compensates on Python >= 3.12
    for value in _map_tiles(tile, [(i, j) for i in range(0, n, TILE)
                                   for j in range(i, n, TILE)]):
        total += value
    return total


def _row_sums(kernel, X, Y):
    """sum_j K(x_i, y_j)^2 per row; a row's bits do not depend on other rows."""
    out = np.zeros(X.shape[0])

    def band(i):
        for j in range(0, Y.shape[0], TILE):
            M = kernel._pairwise(X[i:i + TILE], Y[j:j + TILE])
            out[i:i + TILE] += np.einsum("ij,ij->i", M, M)

    _map_tiles(band, range(0, X.shape[0], TILE))
    return out


def _hs_from_sums(taa, tbb, tab):
    """sqrt(taa + tbb - 2 tab) from normalized Gram-square sums (scalars or arrays).

    The square of a distance is never negative; round-off below zero is
    clamped, a larger negative value means the kernel is not PSD.
    """
    sq = taa + tbb - 2.0 * tab
    if np.any(sq < -1e-10 * np.maximum(taa + tbb, 1e-300)):
        raise NumericError("squared distance came out negative beyond round-off")
    return np.sqrt(np.maximum(sq, 0.0))


def hs_norm(kernel, points):
    """Hilbert-Schmidt norm of T_n via the Gram identity.

    For unit-diagonal kernels tr T_n = 1 exactly; the Hilbert-Schmidt
    norm is at most the trace norm, so the result is at most 1.
    """
    X = _as_points(points)
    return float(np.sqrt(_self_sum(kernel, X) / X.shape[0] ** 2))


def hs_distance(kernel, X, Y):
    """Hilbert-Schmidt distance between the empirical operators of two samples.

    Uses the exact identity

        ||T_n - T_m||^2 = (1/n^2) sum K(x,x')^2 + (1/m^2) sum K(y,y')^2
                          - (2/nm) sum K(x,y)^2,

    so no eigendecomposition is needed and memory stays at one tile per
    thread.  Equal samples take all three terms from one self-sum, so they
    give exactly 0.
    """
    X, Y = _point_pair(X, Y)
    n, m = X.shape[0], Y.shape[0]
    taa = _self_sum(kernel, X) / n ** 2
    if np.array_equal(X, Y):
        tbb = tab = taa
    else:
        tbb = _self_sum(kernel, Y) / m ** 2
        tab = float(_row_sums(kernel, X, Y).sum()) / (n * m)
    return float(_hs_from_sums(taa, tbb, tab))


# ---------------------------------------------------------------------------
# Bound calculators.  Plain formulas with the stated parameter ranges;
# every symbol is a user-supplied input, nothing is estimated.


def _check_n_delta(n, delta):
    if not n >= 1:
        raise UsageError(f"n must be >= 1, got {n!r}")
    if not 0 < delta < np.inf:
        raise UsageError(f"delta must be positive and finite, got {delta!r}")


def concentration_bound(n, delta):
    """2 * max(delta, sqrt(2 delta)) / sqrt(n), violated with prob <= 2 e^-delta."""
    _check_n_delta(n, delta)
    return 2.0 * max(delta, np.sqrt(2.0 * delta)) / np.sqrt(n)


def effective_dimension(decomposition, lam):
    """N(lambda) = sum_j sigma_j / (sigma_j + lambda) over the positive spectrum.

    Decreasing in lambda, tends to the rank as lambda -> 0.  Accepts a
    SpectralDecomposition or a bare eigenvalue vector.
    """
    if not lam > 0:
        raise UsageError(f"lambda must be positive, got {lam!r}")
    s = np.asarray(getattr(decomposition, "eigenvalues", decomposition), dtype=float)
    s = s[s > 0.0]
    return float(np.sum(s / (s + lam)))


def sample_error_bound(n, lam, delta, effective_dim):
    """delta/(n lam) + sqrt(2 delta N(lam) / (n lam))."""
    _check_n_delta(n, delta)
    if not (lam > 0 and effective_dim >= 0):
        raise UsageError("sample_error_bound needs lam > 0, N >= 0")
    return delta / (n * lam) + np.sqrt(2.0 * delta * effective_dim / (n * lam))


def approximation_error_bound(lam, s, c_s):
    """C_s * lambda^s for source smoothness s in (0, 1]."""
    if not lam > 0:
        raise UsageError(f"lambda must be positive, got {lam!r}")
    if not 0.0 < s <= 1.0:
        raise UsageError(f"s must lie in (0, 1], got {s!r}")
    if not c_s > 0:
        raise UsageError(f"C_s must be positive, got {c_s!r}")
    return c_s * lam ** s


def finite_sample_bound(n, delta, s, b, c_s, d_b):
    """max(C_s, 2 D_b max(delta, sqrt(2 delta))) * n^(-s/(2s+b+1)).

    This is the constant of the proof's final display.  The theorem
    statement carries C_s v (D_b (2 delta v sqrt(2 delta))) instead, which
    differs; the two disagree and we follow the proof.
    """
    _check_n_delta(n, delta)
    if not c_s > 0:
        raise UsageError(f"C_s must be positive, got {c_s!r}")
    if not 0.0 < s <= 1.0:
        raise UsageError(f"s must lie in (0, 1], got {s!r}")
    if not 0.0 <= b <= 1.0:
        raise UsageError(f"b must lie in [0, 1], got {b!r}")
    if not d_b >= 1.0:
        raise UsageError(f"D_b must be >= 1, got {d_b!r}")
    constant = max(c_s, 2.0 * d_b * max(delta, np.sqrt(2.0 * delta)))
    return constant * float(n) ** (-s / (2.0 * s + b + 1.0))


def bernstein_bound(m_bound, variance, n, delta):
    """M delta / n + sqrt(2 sigma^2 delta / n) for bounded vector averages."""
    _check_n_delta(n, delta)
    if not (m_bound > 0 and variance > 0):
        raise UsageError("bernstein_bound needs M > 0, variance > 0")
    return m_bound * delta / n + np.sqrt(2.0 * variance * delta / n)


# ---------------------------------------------------------------------------
# Monte-Carlo harnesses.  One generator per trial, keyed [seed, trial], so
# any prefix of the trial sequence reproduces bit-for-bit; the reference
# sample uses its own reserved stream.


def _check_counts(**counts):
    """Refuse a harness count that is not an integer; callers check ranges first."""
    for name, value in counts.items():
        if not isinstance(value, numbers.Integral):
            raise UsageError(f"{name} must be an integer, got {value!r}")


def concentration_trials(sample_fn, kernel, n, delta, trials, ref_size, seed):
    """Observed ||T_n - T_ref|| per trial against the concentration bound.

    ``sample_fn(n, rng)`` draws a sample.  Returns (observed, bound) where
    observed has one HS distance per trial; the violation fraction
    ``(observed > bound).mean()`` should not exceed 2 e^-delta.  The cross
    terms of all trials come from one stacked pass over the reference.
    """
    bound = concentration_bound(n, delta)
    if trials < 1 or ref_size < 1:
        raise UsageError(f"need trials, ref_size >= 1, got {trials!r}, {ref_size!r}")
    _check_counts(n=n, trials=trials, ref_size=ref_size)
    ref = _as_points(sample_fn(ref_size, np.random.default_rng([seed, _REF_STREAM])))
    samples = [_as_points(sample_fn(n, np.random.default_rng([seed, t])))
               for t in range(trials)]
    rows = _row_sums(kernel, np.concatenate(samples), ref).reshape(trials, -1)
    self_terms = np.array([_self_sum(kernel, pts) / (n * n) for pts in samples])
    observed = _hs_from_sums(self_terms, _self_sum(kernel, ref) / ref.shape[0] ** 2,
                             rows.sum(1) / (n * ref.shape[0]))
    return observed, bound


def bernstein_trials(n, delta, trials, seed):
    """Coin-flip sample means (values +-1, mean 0) against the Bernstein bound.

    Returns (observed, bound) with observed |mean| per trial; the
    violation fraction should not exceed 2 e^-delta.
    """
    if trials < 1:
        raise UsageError(f"need at least one trial, got {trials!r}")
    bound = bernstein_bound(1.0, 1.0, n, delta)
    _check_counts(n=n, trials=trials)
    observed = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        flips = rng.integers(0, 2, size=n) * 2.0 - 1.0
        observed[t] = abs(float(flips.mean()))
    return observed, bound
