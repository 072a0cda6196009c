"""Reference computations that only the tests use.

Dense matrix functions of the spectrum, the Cholesky solve for Tikhonov
coefficients, the pseudo-inverse score, a matrix-function perturbation
check, a convergence-rate witness for the empirical operator, and the
cell-by-cell renderings of CSV tables and text model payloads.  The library scores through one contraction over a factor of the
fitted model (see ``setlearn.estimator``); these build the operators the
theory speaks about explicitly, so the tests can compare the two.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve

from setlearn.data import fmt_value
from setlearn.errors import UsageError
from setlearn.estimator import _cholesky
from setlearn.filters import (SpectralDecomposition, _prep_spectrum,
                              lipschitz_constant)
from setlearn.kernels import _as_points
from setlearn.oracles import _REF_STREAM, _hs_from_sums, _row_sums, _self_sum

# Rank tolerance of the pseudo-inverse, relative to the largest singular
# value; shared with the estimator's null-eigenvalue convention.
PINV_RCOND = 1e-12


def apply_r(f, decomposition):
    """The matrix r(K_n/n), exactly symmetric."""
    r = f._r(decomposition.eigenvalues)
    V = decomposition.eigenvectors
    M = (V * r) @ V.T
    return (M + M.T) / 2.0


def apply_g(f, decomposition):
    """The matrix g(K_n/n), exactly symmetric."""
    gv = f._g(decomposition.eigenvalues)
    V = decomposition.eigenvectors
    M = (V * gv) @ V.T
    return (M + M.T) / 2.0


def tikhonov_coefficients(g, kx, lam):
    """Solve (K_n + n*lam*I) alpha = kx by Cholesky.

    ``kx`` may be a vector or a matrix of stacked right-hand sides.
    """
    lam = float(lam)
    if not np.isfinite(lam) or lam <= 0:
        raise UsageError(f"lam must be positive and finite, got {lam!r}")
    return cho_solve(_cholesky(g, lam), np.asarray(kx, dtype=float))


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
    return apply_r(f, SpectralDecomposition(_prep_spectrum(s)[0], V))  # checks s in [0, 1]


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
    P = np.linalg.pinv(g, rcond=PINV_RCOND, hermitian=True)
    return float(kx @ P @ kx)


def convergence_witness(sample_fn, kernel, sizes, trials, ref_size, seed):
    """Median of sqrt(n)/log(n) * ||T_n - T_ref|| over nested samples.

    For each trial one sample of max(sizes) points is drawn, on the
    streams ``concentration_trials`` uses, and prefixes give the nested
    T_n.  Returns the per-size medians; the scaled distance should be
    nonincreasing in n when concentration holds at the sqrt(n)/log(n) rate.
    """
    sizes = sorted(int(s) for s in sizes)
    if not sizes or sizes[0] < 2:
        raise UsageError("sizes must be integers >= 2")
    if trials < 1 or ref_size < 1:
        raise UsageError(f"need trials, ref_size >= 1, got {trials!r}, {ref_size!r}")
    ref = _as_points(sample_fn(ref_size, np.random.default_rng([seed, _REF_STREAM])))
    ref_term = _self_sum(kernel, ref) / ref.shape[0] ** 2
    samples = [_as_points(sample_fn(sizes[-1], np.random.default_rng([seed, t])))
               for t in range(trials)]
    rows = _row_sums(kernel, np.concatenate(samples), ref).reshape(trials, -1)
    self_terms = np.array([[_self_sum(kernel, pts[:n]) / (n * n) for n in sizes]
                           for pts in samples])
    cross_terms = np.stack([rows[:, :n].sum(1) / (n * ref.shape[0]) for n in sizes], 1)
    scale = np.sqrt(sizes) / np.log(sizes)
    return np.median(scale * _hs_from_sums(self_terms, ref_term, cross_terms), axis=0)


def table_body(rows):
    """The data lines of a CSV table, each cell through ``fmt_value``."""
    return "".join(",".join(map(fmt_value, row)) + "\n" for row in rows)


def text_payload(model, decomposition=None):
    """The text model payload, each value formatted on its own with %.17g."""
    blocks = [model.points]
    if decomposition is not None:
        blocks += [[decomposition.eigenvalues], decomposition.eigenvectors]
    return "".join(" ".join(f"{v:.17g}" for v in row) + "\n"
                   for block in blocks for row in block).encode("ascii")
