"""Operator-level identities, error-bound calculators and their Monte-Carlo checks.

Nothing here scores points.  The module gives exact finite realizations
of what the theory argues about, for tests to compare the estimator with:

* the empirical integral operator T_n = (1/n) sum K_{x_i} (x) K_{x_i},
  held as its sample; its Hilbert-Schmidt norms and distances are sums
  of squared kernel values, taken over cache-sized tiles,
* bound formulas (concentration, sample, approximation, finite-sample),
* a matrix-function perturbation check for Lipschitz filters,
* the pseudo-inverse score, the lambda -> 0 limit of spectral cutoff,
* seeded Monte-Carlo harnesses that report observed-vs-bound tables.

The true operator T is never formed; a large reference sample stands in
for it, and the harness reports that substitution's own error bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError
from .filters import lipschitz_constant, r_value
from .kernels import _as_points

__all__ = [
    "EmpiricalOperator", "hs_norm", "hs_distance",
    "concentration_bound", "effective_dimension", "sample_error_bound",
    "approximation_error_bound", "finite_sample_bound", "bernstein_bound",
    "maurer_check", "exact_projection_score",
    "concentration_trials", "bernstein_trials", "convergence_witness",
]

# Rank tolerance of the pseudo-inverse, relative to the largest singular
# value; shared with the estimator's null-eigenvalue convention.
PINV_RCOND = 1e-12

TILE = 256  # default tile edge of the Gram-square sums; such a tile stays in cache

# Sub-stream index reserved for the reference sample of a harness; trial
# streams use [seed, trial] with trial < 2^31.
_REF_STREAM = 2 ** 31


@dataclass(frozen=True, eq=False)
class EmpiricalOperator:
    """T_n = (1/n) sum of K(x_i, .)-projectors, held as (sample, kernel).

    For unit-diagonal kernels tr T_n = 1 exactly; the Hilbert-Schmidt
    norm is at most the trace norm, so hs_norm(op) <= 1.
    """

    points: np.ndarray
    kernel: object

    def __post_init__(self):
        object.__setattr__(self, "points", _as_points(self.points))

    @property
    def n(self):
        return self.points.shape[0]


def _self_sum(kernel, X, block):
    """sum_ij K(x_i, x_j)^2; K is symmetric, so only upper-triangle tiles."""
    total = 0.0
    for i in range(0, X.shape[0], block):
        for j in range(i, X.shape[0], block):
            M = kernel._pairwise(X[i:i + block], X[j:j + block])
            total += (1.0 if i == j else 2.0) * float(np.einsum("ij,ij->", M, M))
    return total


def _row_sums(kernel, X, Y, block):
    """sum_j K(x_i, y_j)^2 per row; a row's bits do not depend on other rows."""
    out = np.zeros(X.shape[0])
    for i in range(0, X.shape[0], block):
        for j in range(0, Y.shape[0], block):
            M = kernel._pairwise(X[i:i + block], Y[j:j + block])
            out[i:i + block] += np.einsum("ij,ij->i", M, M)
    return out


def hs_norm(op, block=TILE):
    """Hilbert-Schmidt norm of an empirical operator via the Gram identity."""
    return float(np.sqrt(_self_sum(op.kernel, op.points, block) / op.n ** 2))


def hs_distance(a, b, block=TILE):
    """Hilbert-Schmidt distance between two empirical operators.

    Uses the exact identity

        ||T_n - T_m||^2 = (1/n^2) sum K(x,x')^2 + (1/m^2) sum K(y,y')^2
                          - (2/nm) sum K(x,y)^2,

    so no eigendecomposition is needed and memory stays at one tile.  Equal
    samples take all three terms from one self-sum, so they give exactly 0.
    """
    if a.kernel != b.kernel:
        raise UsageError("hs_distance needs both operators to share one kernel")
    taa = _self_sum(a.kernel, a.points, block) / a.n ** 2
    if np.array_equal(a.points, b.points):
        tbb = tab = taa
    else:
        tbb = _self_sum(b.kernel, b.points, block) / b.n ** 2
        tab = float(_row_sums(a.kernel, a.points, b.points, block).sum()) / (a.n * b.n)
    sq = taa + tbb - 2.0 * tab
    if sq < -1e-10 * max(taa + tbb, 1e-300):
        raise NumericError("squared distance came out negative beyond round-off")
    return float(np.sqrt(max(sq, 0.0)))


# ---------------------------------------------------------------------------
# Bound calculators.  Plain formulas with the stated parameter ranges;
# every symbol is a user-supplied input, nothing is estimated.


def concentration_bound(n, delta):
    """2 * max(delta, sqrt(2 delta)) / sqrt(n), violated with prob <= 2 e^-delta."""
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n!r}")
    if delta <= 0:
        raise UsageError(f"delta must be positive, got {delta!r}")
    return 2.0 * max(delta, np.sqrt(2.0 * delta)) / np.sqrt(n)


def effective_dimension(decomposition, lam):
    """N(lambda) = sum_j sigma_j / (sigma_j + lambda) over the positive spectrum.

    Decreasing in lambda, tends to the rank as lambda -> 0.  Accepts a
    SpectralDecomposition or a bare eigenvalue vector.
    """
    if lam <= 0:
        raise UsageError(f"lambda must be positive, got {lam!r}")
    s = np.asarray(getattr(decomposition, "eigenvalues", decomposition), dtype=float)
    s = s[s > 0.0]
    return float(np.sum(s / (s + lam)))


def sample_error_bound(n, lam, delta, effective_dim):
    """delta/(n lam) + sqrt(2 delta N(lam) / (n lam))."""
    if n < 1 or lam <= 0 or delta <= 0 or effective_dim < 0:
        raise UsageError("sample_error_bound needs n >= 1, lam > 0, delta > 0, N >= 0")
    return delta / (n * lam) + np.sqrt(2.0 * delta * effective_dim / (n * lam))


def approximation_error_bound(lam, s, c_s):
    """C_s * lambda^s for source smoothness s in (0, 1]."""
    if lam <= 0:
        raise UsageError(f"lambda must be positive, got {lam!r}")
    if not 0.0 < s <= 1.0:
        raise UsageError(f"s must lie in (0, 1], got {s!r}")
    if c_s <= 0:
        raise UsageError(f"C_s must be positive, got {c_s!r}")
    return c_s * lam ** s


def finite_sample_bound(n, delta, s, b, c_s, d_b):
    """max(C_s, 2 D_b max(delta, sqrt(2 delta))) * n^(-s/(2s+b+1)).

    This is the constant of the proof's final display.  The theorem
    statement carries C_s v (D_b (2 delta v sqrt(2 delta))) instead, which
    differs; the two disagree and we follow the proof.
    """
    if n < 1 or delta <= 0 or c_s <= 0:
        raise UsageError("finite_sample_bound needs n >= 1, delta > 0, C_s > 0")
    if not 0.0 < s <= 1.0:
        raise UsageError(f"s must lie in (0, 1], got {s!r}")
    if not 0.0 <= b <= 1.0:
        raise UsageError(f"b must lie in [0, 1], got {b!r}")
    if d_b < 1.0:
        raise UsageError(f"D_b must be >= 1, got {d_b!r}")
    constant = max(c_s, 2.0 * d_b * max(delta, np.sqrt(2.0 * delta)))
    return constant * float(n) ** (-s / (2.0 * s + b + 1.0))


def bernstein_bound(m_bound, variance, n, delta):
    """M delta / n + sqrt(2 sigma^2 delta / n) for bounded vector averages."""
    if m_bound <= 0 or variance <= 0 or n < 1 or delta <= 0:
        raise UsageError("bernstein_bound needs M > 0, variance > 0, n >= 1, delta > 0")
    return m_bound * delta / n + np.sqrt(2.0 * variance * delta / n)


# ---------------------------------------------------------------------------
# Matrix-function perturbation and the projection score.


def _symmetrized(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise UsageError(f"{name} must be a square matrix")
    scale = max(float(np.max(np.abs(M))), 1.0)
    if np.max(np.abs(M - M.T)) > 1e-10 * scale:
        raise UsageError(f"{name} is not symmetric")
    return (M + M.T) / 2.0


def _filter_matrix(f, M):
    s, V = np.linalg.eigh(M)
    r = r_value(f, s)   # validates the spectrum lies in [0, 1] up to slack
    A = (V * r) @ V.T
    return (A + A.T) / 2.0


def maurer_check(S, T, f):
    """Frobenius norms (lhs, rhs) of ||r(S) - r(T)|| <= L ||S - T||.

    The caller asserts lhs <= rhs * (1 + 1e-10); equality is attained in
    degenerate cases, so the slack absorbs round-off only.
    """
    L = lipschitz_constant(f)
    if L is None:
        raise UsageError("the perturbation bound needs a Lipschitz filter")
    S = _symmetrized(S, "S")
    T = _symmetrized(T, "T")
    lhs = float(np.linalg.norm(_filter_matrix(f, S) - _filter_matrix(f, T), "fro"))
    rhs = float(L * np.linalg.norm(S - T, "fro"))
    return lhs, rhs


def exact_projection_score(g, kx):
    """k_x' K_n^+ k_x with a tolerance-rank pseudo-inverse.

    The squared norm of the projection of K_x onto the span of the
    training sections; the lambda -> 0 limit of spectral-cutoff scores.
    """
    kx = np.asarray(kx, dtype=float)
    P = np.linalg.pinv(g.entries, rcond=PINV_RCOND, hermitian=True)
    return float(kx @ P @ kx)


# ---------------------------------------------------------------------------
# Monte-Carlo harnesses.  One generator per trial, keyed [seed, trial], so
# any prefix of the trial sequence reproduces bit-for-bit; the reference
# sample uses its own reserved stream.


def _distances(sample_fn, kernel, sizes, trials, ref_size, seed, block):
    """||T_n - T_ref|| per trial and prefix size n; one stacked cross-term pass."""
    if trials < 1 or ref_size < 1:
        raise UsageError(f"need trials, ref_size >= 1, got {trials!r}, {ref_size!r}")
    ref = _as_points(sample_fn(ref_size, np.random.default_rng([seed, _REF_STREAM])))
    ref_term = _self_sum(kernel, ref, block) / ref.shape[0] ** 2
    samples = [_as_points(sample_fn(sizes[-1], np.random.default_rng([seed, t])))
               for t in range(trials)]
    rows = _row_sums(kernel, np.concatenate(samples), ref, block).reshape(trials, -1)
    self_terms = np.array([[_self_sum(kernel, pts[:n], block) / (n * n) for n in sizes]
                           for pts in samples])
    cross_terms = np.stack([rows[:, :n].sum(1) / (n * ref.shape[0]) for n in sizes], 1)
    return np.sqrt(np.maximum(self_terms + ref_term - 2.0 * cross_terms, 0.0))


def concentration_trials(sample_fn, kernel, n, delta, trials, ref_size, seed,
                         block=TILE):
    """Observed ||T_n - T_ref|| per trial against the concentration bound.

    ``sample_fn(n, rng)`` draws a sample.  Returns (observed, bound) where
    observed has one HS distance per trial; the violation fraction
    ``(observed > bound).mean()`` should not exceed 2 e^-delta.
    """
    bound = concentration_bound(n, delta)
    observed = _distances(sample_fn, kernel, [n], trials, ref_size, seed, block)
    return observed[:, 0], bound


def bernstein_trials(n, delta, trials, seed):
    """Coin-flip sample means (values +-1, mean 0) against the Bernstein bound.

    Returns (observed, bound) with observed |mean| per trial; the
    violation fraction should not exceed 2 e^-delta.
    """
    if trials < 1:
        raise UsageError(f"need at least one trial, got {trials!r}")
    bound = bernstein_bound(1.0, 1.0, n, delta)
    observed = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        flips = rng.integers(0, 2, size=n) * 2.0 - 1.0
        observed[t] = abs(float(flips.mean()))
    return observed, bound


def convergence_witness(sample_fn, kernel, sizes, trials, ref_size, seed,
                        block=TILE):
    """Median of sqrt(n)/log(n) * ||T_n - T_ref|| over nested samples.

    For each trial one sample of max(sizes) points is drawn and prefixes
    give the nested T_n.  Returns the per-size medians; the scaled
    distance should be nonincreasing in n when concentration holds at the
    sqrt(n)/log(n) rate.
    """
    sizes = sorted(int(s) for s in sizes)
    if not sizes or sizes[0] < 2:
        raise UsageError("sizes must be integers >= 2")
    scale = np.sqrt(sizes) / np.log(sizes)
    return np.median(scale * _distances(sample_fn, kernel, sizes, trials, ref_size,
                                        seed, block), axis=0)
