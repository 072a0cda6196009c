"""Operator-level identities, error-bound calculators and their Monte-Carlo checks.

Nothing here scores points.  The module gives exact finite realizations
of what the theory argues about, for tests to compare the estimator with:

* the empirical integral operator T_n = (1/n) sum K_{x_i} (x) K_{x_i},
  given as (kernel, points) like ``gram``; its Hilbert-Schmidt norms and
  distances are sums of squared kernel values, taken over cache-sized tiles
  on a standard thread pool with one worker per usable core, and added in
  tile order, so the sums do not depend on the core count,
* bound formulas (concentration, sample, approximation, finite-sample),
* seeded Monte-Carlo harnesses that report observed-vs-bound tables.

The true operator T is never formed; a large reference sample stands in
for it, and the harness reports that substitution's own error bound.
"""

from __future__ import annotations

import functools
import inspect
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import NumericError, UsageError, check_number, check_seed, real_array
from .kernels import _as_points, _kernel, _point_pair

__all__ = [
    "hs_norm", "hs_distance",
    "concentration_bound", "effective_dimension", "sample_error_bound",
    "approximation_error_bound", "finite_sample_bound", "bernstein_bound",
    "concentration_trials", "bernstein_trials",
]

# Tile edge of the blockwise sums over a Gram; a 256 x 256 tile of doubles
# stays in cache.
TILE = 256

# Sub-stream index reserved for the reference sample of a harness; trial
# streams use [seed, trial] with trial < 2^31.
_REF_STREAM = 2 ** 31


def _cores():
    """Cores this process may run on (the affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_tiles(fn, items):
    """[fn(x) for x in a sequence of items], one worker thread per usable core.

    cdist and exp release the GIL, so tiles run in parallel.  Results come
    back in item order; an error in any tile reaches the caller after every
    worker has stopped.
    """
    workers = min(_cores(), len(items))
    if workers < 2:
        return list(map(fn, items))
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


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
    def band(i):
        sums = np.zeros(X[i:i + TILE].shape[0])
        for j in range(0, Y.shape[0], TILE):
            M = kernel._pairwise(X[i:i + TILE], Y[j:j + TILE])
            sums += np.einsum("ij,ij->i", M, M)
        return sums

    return np.concatenate(_map_tiles(band, range(0, X.shape[0], TILE)))


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
    return float(np.sqrt(_self_sum(_kernel(kernel), X) / X.shape[0] ** 2))


def hs_distance(kernel, X, Y):
    """Hilbert-Schmidt distance between the empirical operators of two samples.

    Uses the exact identity

        ||T_n - T_m||^2 = (1/n^2) sum K(x,x')^2 + (1/m^2) sum K(y,y')^2
                          - (2/nm) sum K(x,y)^2,

    so no eigendecomposition is needed and memory stays at one tile per
    pool worker.  Equal samples take all three terms from one self-sum, so
    they give exactly 0.
    """
    X, Y = _point_pair(X, Y)
    n, m = X.shape[0], Y.shape[0]
    taa = _self_sum(_kernel(kernel), X) / n ** 2
    if np.array_equal(X, Y):
        tbb = tab = taa
    else:
        tbb = _self_sum(kernel, Y) / m ** 2
        tab = float(_row_sums(kernel, X, Y).sum()) / (n * m)
    return float(_hs_from_sums(taa, tbb, tab))


# ---------------------------------------------------------------------------
# Bound calculators.  Plain formulas with the stated parameter ranges;
# every symbol is a user-supplied input, nothing is estimated.


def _in_float_range(calculator):
    """``calculator`` refusing, with ``NumericError``, a bound outside the float
    range: an inf bound is never violated, so a harness would pass on it."""
    name, signature = calculator.__name__.replace("_", " "), inspect.signature(calculator)

    @functools.wraps(calculator)
    def checked(*args, **kwargs):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            value = calculator(*args, **kwargs)
        if not np.isfinite(value):
            given = signature.bind(*args, **kwargs).arguments.items()
            raise NumericError(f"the {name} overflows the float range ("
                               + ", ".join(f"{k}={v!r}" for k, v in given) + ")")
        return value
    return checked


def _check_n_delta(n, delta):
    """The sample size and confidence level that every bound takes."""
    check_number("n must be >= 1", n, ok=lambda v: v >= 1)
    check_number("delta must be positive and finite", delta, ok=lambda v: 0 < v < np.inf)


@_in_float_range
def concentration_bound(n, delta):
    """2 * max(delta, sqrt(2 delta)) / sqrt(n), violated with prob <= 2 e^-delta."""
    _check_n_delta(n, delta)
    return 2.0 * max(delta, np.sqrt(2.0 * delta)) / np.sqrt(n)


def effective_dimension(eigenvalues, lam):
    """N(lambda) = sum_j sigma_j / (sigma_j + lambda) over the positive eigenvalues.

    Decreasing in lambda, tends to the rank as lambda -> 0.
    """
    check_number("lambda must be positive", lam, ok=lambda v: v > 0)
    s = real_array("eigenvalues must be real numbers", eigenvalues).astype(float, copy=False)
    s = s[s > 0.0]
    return float(np.sum(s / (s + lam)))


@_in_float_range
def sample_error_bound(n, lam, delta, effective_dim):
    """delta/(n lam) + sqrt(2 delta N(lam) / (n lam))."""
    _check_n_delta(n, delta)
    check_number("lambda must be positive", lam, ok=lambda v: v > 0)
    check_number("N must be nonnegative", effective_dim, ok=lambda v: v >= 0)
    return delta / (n * lam) + np.sqrt(2.0 * delta * effective_dim / (n * lam))


@_in_float_range
def approximation_error_bound(lam, s, c_s):
    """C_s * lambda^s for source smoothness s in (0, 1]."""
    check_number("lambda must be positive", lam, ok=lambda v: v > 0)
    check_number("s must lie in (0, 1]", s, ok=lambda v: 0 < v <= 1)
    check_number("C_s must be positive", c_s, ok=lambda v: v > 0)
    return c_s * lam ** s


@_in_float_range
def finite_sample_bound(n, delta, s, b, c_s, d_b):
    """max(C_s, 2 D_b max(delta, sqrt(2 delta))) * n^(-s/(2s+b+1)).

    This is the constant of the proof's final display.  The theorem
    statement carries C_s v (D_b (2 delta v sqrt(2 delta))) instead, which
    differs; the two disagree and we follow the proof.
    """
    _check_n_delta(n, delta)
    check_number("C_s must be positive", c_s, ok=lambda v: v > 0)
    check_number("s must lie in (0, 1]", s, ok=lambda v: 0 < v <= 1)
    check_number("b must lie in [0, 1]", b, ok=lambda v: 0 <= v <= 1)
    check_number("D_b must be >= 1", d_b, ok=lambda v: v >= 1)
    constant = max(c_s, 2.0 * d_b * max(delta, np.sqrt(2.0 * delta)))
    return constant * float(n) ** (-s / (2.0 * s + b + 1.0))


@_in_float_range
def bernstein_bound(m_bound, variance, n, delta):
    """M delta / n + sqrt(2 sigma^2 delta / n) for bounded vector averages."""
    _check_n_delta(n, delta)
    check_number("bernstein_bound needs M > 0, variance > 0", m_bound, variance,
                 ok=lambda v: v > 0)
    return m_bound * delta / n + np.sqrt(2.0 * variance * delta / n)


# ---------------------------------------------------------------------------
# Monte-Carlo harnesses.  One generator per trial, keyed [seed, trial] with
# ``seed`` a nonnegative integer, so any prefix of the trial sequence
# reproduces bit-for-bit; the reference sample uses its own reserved stream.


def concentration_trials(sample_fn, kernel, n, delta, trials, ref_size, seed):
    """Observed ||T_n - T_ref|| per trial against the concentration bound.

    ``sample_fn(n, rng)`` draws a sample.  Returns (observed, bound) where
    observed has one HS distance per trial; the violation fraction
    ``(observed > bound).mean()`` should not exceed 2 e^-delta.  The cross
    terms of all trials come from one stacked pass over the reference.
    """
    bound = concentration_bound(n, delta)
    for name, count in (("n", n), ("trials", trials), ("ref_size", ref_size)):
        check_number(f"{name} must be an integer", count, integral=True)
    check_number("need trials, ref_size >= 1", trials, ref_size, ok=lambda v: v >= 1)
    check_seed(seed)
    if not callable(sample_fn):
        raise UsageError(f"the sampler must be callable, got {sample_fn!r}")
    if not callable(getattr(kernel, "_pairwise", None)):   # a duck-typed kernel serves too
        raise UsageError(f"kernel must be a kernel spec, got {kernel!r}")
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
    bound = bernstein_bound(1.0, 1.0, n, delta)
    check_number("n must be an integer", n, integral=True)
    check_number("trials must be an integer >= 1", trials, ok=lambda v: v >= 1, integral=True)
    check_seed(seed)
    observed = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        flips = rng.integers(0, 2, size=n) * 2.0 - 1.0
        observed[t] = abs(float(flips.mean()))
    return observed, bound
