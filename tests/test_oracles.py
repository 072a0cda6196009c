import math
import threading
import time
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import convergence_witness, exact_projection_score, maurer_check
from setlearn import (Abel, DataError, Gaussian, KpcaTruncation,
                      L1Exponential, Landweber, Linear, NumericError,
                      SpectralCutoff, Tikhonov, UsageError,
                      approximation_error_bound, bernstein_bound,
                      concentration_bound, cross_gram, decompose,
                      effective_dimension, finite_sample_bound, fit, gram,
                      get_task, hs_distance, hs_norm, normalize,
                      product_kernel, rate_lambda, sample_error_bound,
                      score_batch)
from setlearn import oracles
from setlearn.oracles import (_row_sums, _self_sum, bernstein_trials,
                              concentration_trials)


def test_hs_distance_zero_on_identical_samples():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 2))
    assert hs_distance(Abel(1.0), X, X) == 0.0


def test_hs_distance_far_singletons():
    # Abel(1) at distance 50: K(x,y) ~ 2e-22, so the distance is sqrt(2)
    npt.assert_allclose(hs_distance(Abel(1.0), [[0.0]], [[50.0]]), math.sqrt(2.0),
                        rtol=1e-14)


def test_hs_distance_singleton_expansion():
    # ||K_x(x)K_x - K_y(x)K_y||^2 expands to 2 - 2 K(x,y)^2
    x, y = [[0.0]], [[1.3]]
    k = Abel(1.0)
    kxy = math.exp(-1.3)
    expected = math.sqrt(2.0 - 2.0 * kxy ** 2)
    npt.assert_allclose(hs_distance(k, x, y), expected, rtol=1e-12)


def test_hs_distance_same_singleton_point():
    assert hs_distance(Abel(1.0), [[0.5, 0.5]], [[0.5, 0.5]]) == 0.0


def test_hs_distance_metric_axioms():
    rng = np.random.default_rng(5)
    k = Abel(1.0)
    samples = [rng.normal(size=(rng.integers(3, 9), 2)) for _ in range(4)]
    for a in samples:
        for b in samples:
            dab = hs_distance(k, a, b)
            assert dab >= 0.0
            npt.assert_allclose(dab, hs_distance(k, b, a), rtol=1e-12)
    for a in samples:
        for b in samples:
            for c in samples:
                assert (hs_distance(k, a, c)
                        <= hs_distance(k, a, b) + hs_distance(k, b, c) + 1e-12)


def test_hs_distance_rejects_dimension_mismatch():
    with pytest.raises(DataError, match="dimension mismatch"):
        hs_distance(Abel(1.0), [[0, 1]], [[0]])


def test_hs_norm_trace_identity():
    # ||T_n||_HS^2 = mean of K^2 entries <= trace T_n = 1
    rng = np.random.default_rng(7)
    X = rng.normal(size=(25, 3))
    v = hs_norm(Abel(1.0), X)
    G = gram(Abel(1.0), X)
    npt.assert_allclose(v, math.sqrt((G ** 2).mean()), rtol=1e-12)
    assert v <= 1.0 + 1e-12


def test_hs_blockwise_equals_direct():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 2))
    Y = rng.normal(size=(21, 2))
    a = hs_distance(Abel(1.0), X, Y)
    with mock.patch.object(oracles, "TILE", 7):
        b = hs_distance(Abel(1.0), X, Y)
    npt.assert_allclose(a, b, rtol=1e-13)


_SUM_KERNELS = [Abel(0.7), L1Exponential(1.3), Gaussian(0.9), normalize(Linear()),
                product_kernel([(Abel(1.0), (0, 1)), (Gaussian(0.5), (1, 3))])]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kernel=st.sampled_from(_SUM_KERNELS),
       n=st.integers(1, 40), m=st.integers(1, 40),
       tile=st.one_of(st.sampled_from([1, 7, 256]), st.integers(41, 80)))
def test_tiled_sums_match_dense(seed, kernel, n, m, tile):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    Y = rng.normal(size=(m, 3))
    with mock.patch.object(oracles, "TILE", tile):
        npt.assert_allclose(_self_sum(kernel, X),
                            (kernel._pairwise(X, X) ** 2).sum(), rtol=1e-12)
        npt.assert_allclose(_row_sums(kernel, X, Y),
                            (kernel._pairwise(X, Y) ** 2).sum(1), rtol=1e-12)


def _report_cores(monkeypatch, cores):
    monkeypatch.setattr(oracles.os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)


def test_tile_sums_do_not_depend_on_the_thread_count(monkeypatch):
    task = get_task("circle")
    rng = np.random.default_rng(8)
    X, Y = task.draw(150, rng), task.draw(70, rng)
    monkeypatch.setattr(oracles, "TILE", 32)
    results = []
    for cores in (1, 4):
        _report_cores(monkeypatch, cores)
        results.append([_self_sum(Abel(1.0), X), _row_sums(Abel(1.0), X, Y),
                        concentration_trials(task.draw, Abel(1.0), 40, 2.0, 5, 100,
                                             seed=1)[0]])
    for serial, threaded in zip(*results):
        assert np.array_equal(serial, threaded)


class _SlowAbel:
    """Abel(1) that records which threads evaluate its tiles."""

    def __init__(self):
        self.idents = set()

    def _pairwise(self, X, Y):
        self.idents.add(threading.get_ident())
        time.sleep(0.005)
        return Abel(1.0)._pairwise(X, Y)


@pytest.mark.parametrize("cores", [1, 2])
def test_tiles_run_on_one_thread_per_reported_core(monkeypatch, cores):
    X = np.random.default_rng(2).normal(size=(64, 2))
    monkeypatch.setattr(oracles, "TILE", 16)
    _report_cores(monkeypatch, cores)
    for sums in (lambda k: _self_sum(k, X), lambda k: _row_sums(k, X, X)):
        kernel = _SlowAbel()
        sums(kernel)
        if cores == 1:
            assert kernel.idents == {threading.get_ident()}
        else:
            assert len(kernel.idents) >= 2


def test_an_error_in_a_tile_reaches_the_caller(monkeypatch):
    X = np.random.default_rng(4).normal(size=(80, 2))
    X[70] = 0.0  # K(x, x) = 0 in the last tile
    monkeypatch.setattr(oracles, "TILE", 16)
    _report_cores(monkeypatch, 2)
    before = threading.active_count()
    with pytest.raises(NumericError, match="^cannot normalize: K"):
        hs_norm(normalize(Linear()), X)
    with pytest.raises(NumericError, match="^cannot normalize: K"):
        _row_sums(normalize(Linear()), X, X[:10])
    assert threading.active_count() == before


def test_concentration_bound_values():
    assert concentration_bound(100, 2.0) == 0.4
    assert concentration_bound(100, 0.5) == 0.2


@pytest.mark.parametrize("delta", [0.0, -1.0, np.nan, np.inf])
def test_bounds_refuse_a_delta_not_positive_and_finite(delta):
    for call in (lambda: concentration_bound(100, delta),
                 lambda: sample_error_bound(100, 0.1, delta, 5.0),
                 lambda: finite_sample_bound(100, delta, 1.0, 1.0, 1.0, 1.0),
                 lambda: bernstein_bound(1.0, 1.0, 100, delta),
                 lambda: bernstein_trials(10, delta, 3, 0)):
        with pytest.raises(UsageError, match="delta"):
            call()


_NAN_CALLS = {
    "concentration_bound-n": lambda v: concentration_bound(v, 1.0),
    "effective_dimension-lam": lambda v: effective_dimension([0.5, 0.1], v),
    "sample_error_bound-n": lambda v: sample_error_bound(v, 0.1, 1.0, 5.0),
    "sample_error_bound-lam": lambda v: sample_error_bound(100, v, 1.0, 5.0),
    "sample_error_bound-N": lambda v: sample_error_bound(100, 0.1, 1.0, v),
    "approximation_error_bound-lam": lambda v: approximation_error_bound(v, 0.5, 2.0),
    "approximation_error_bound-s": lambda v: approximation_error_bound(0.1, v, 2.0),
    "approximation_error_bound-C_s": lambda v: approximation_error_bound(0.1, 0.5, v),
    "finite_sample_bound-n": lambda v: finite_sample_bound(v, 1.0, 1.0, 1.0, 1.0, 1.0),
    "finite_sample_bound-s": lambda v: finite_sample_bound(100, 1.0, v, 1.0, 1.0, 1.0),
    "finite_sample_bound-b": lambda v: finite_sample_bound(100, 1.0, 1.0, v, 1.0, 1.0),
    "finite_sample_bound-C_s": lambda v: finite_sample_bound(100, 1.0, 1.0, 1.0, v, 1.0),
    "finite_sample_bound-D_b": lambda v: finite_sample_bound(100, 1.0, 1.0, 1.0, 1.0, v),
    "bernstein_bound-M": lambda v: bernstein_bound(v, 1.0, 100, 1.0),
    "bernstein_bound-variance": lambda v: bernstein_bound(1.0, v, 100, 1.0),
    "bernstein_bound-n": lambda v: bernstein_bound(1.0, 1.0, v, 1.0),
    "rate_lambda-n": lambda v: rate_lambda(v),
    "rate_lambda-s": lambda v: rate_lambda(100, s=v),
    "rate_lambda-b": lambda v: rate_lambda(100, b=v),
    "concentration_bound-delta": lambda v: concentration_bound(100, v),
    "sample_error_bound-delta": lambda v: sample_error_bound(100, 0.1, v, 5.0),
    "finite_sample_bound-delta": lambda v: finite_sample_bound(100, v, 1.0, 1.0, 1.0, 1.0),
    "bernstein_bound-delta": lambda v: bernstein_bound(1.0, 1.0, 100, v),
}


@pytest.mark.parametrize("call", _NAN_CALLS.values(), ids=_NAN_CALLS.keys())
def test_bounds_refuse_a_nan_parameter(call):
    """nan, and anything that is not a real number: text, None, a complex
    number, a bool or an array."""
    for bad in (np.nan, "abc", None, 1j, True, np.array([1.0, 2.0])):
        with pytest.raises(UsageError):
            call(bad)


def test_effective_dimension_examples():
    D = decompose(gram(Abel(1.0), [[0.0], [np.log(2.0)]]))
    npt.assert_allclose(effective_dimension(D, 0.25), 1.25, rtol=1e-12)
    assert effective_dimension(D, 1e9) <= 1e-8
    rng = np.random.default_rng(11)
    D2 = decompose(gram(Abel(1.0), rng.normal(size=(8, 2))))
    r = int(np.count_nonzero(D2.eigenvalues > 1e-12))
    npt.assert_allclose(effective_dimension(D2, 1e-12), r, atol=1e-6)


def test_effective_dimension_decreasing_in_lambda():
    rng = np.random.default_rng(13)
    D = decompose(gram(Abel(1.0), rng.normal(size=(10, 2))))
    lams = 10.0 ** np.linspace(-8, 2, 30)
    vals = [effective_dimension(D, l) for l in lams]
    assert np.all(np.diff(vals) <= 0)


def test_sample_error_bound_examples():
    npt.assert_allclose(sample_error_bound(100, 0.1, 1.0, 5.0), 1.1, rtol=1e-14)
    assert sample_error_bound(100, 0.1, 1e-300, 5.0) <= 1e-100
    a = sample_error_bound(100, 0.1, 1.0, 5.0)
    b = sample_error_bound(200, 0.1, 1.0, 5.0)
    assert b < a


def test_approximation_error_bound_examples():
    npt.assert_allclose(approximation_error_bound(0.01, 0.5, 2.0), 0.2,
                        rtol=1e-14)
    npt.assert_allclose(approximation_error_bound(0.3, 1.0, 4.0), 1.2,
                        rtol=1e-14)
    assert approximation_error_bound(1.0, 0.7, 3.25) == 3.25


def test_finite_sample_bound_example():
    v = finite_sample_bound(1024, 0.5, 1.0, 1.0, 1.0, 1.0)
    npt.assert_allclose(v, 0.3535533905932738, rtol=1e-14)


def test_finite_sample_bound_n_one_gives_constant():
    c_s, d_b, delta = 1.5, 2.0, 0.3
    v = finite_sample_bound(1, delta, 0.5, 0.5, c_s, d_b)
    expected = max(c_s, 2.0 * d_b * max(delta, math.sqrt(2 * delta)))
    npt.assert_allclose(v, expected, rtol=1e-14)


def test_finite_sample_bound_monotone_in_n():
    vals = [finite_sample_bound(n, 1.0, 1.0, 1.0, 1.0, 1.0)
            for n in (10, 100, 1000)]
    assert np.all(np.diff(vals) < 0)


def test_finite_sample_bound_validates_assumption_ranges():
    with pytest.raises(UsageError):
        finite_sample_bound(100, 1.0, 1.5, 1.0, 1.0, 1.0)   # s > 1
    with pytest.raises(UsageError):
        finite_sample_bound(100, 1.0, 1.0, 1.5, 1.0, 1.0)   # b > 1
    with pytest.raises(UsageError):
        finite_sample_bound(100, 1.0, 1.0, 1.0, 1.0, 0.5)   # D_b < 1


def test_bernstein_bound_examples():
    npt.assert_allclose(bernstein_bound(1.0, 1.0, 100, 2.0), 0.22, rtol=1e-14)
    assert bernstein_bound(1.0, 1.0, 100, 1e-300) <= 1e-100


def test_maurer_check_identical_matrices():
    rng = np.random.default_rng(17)
    S = gram(Abel(1.0), rng.normal(size=(5, 2))) / 5
    lhs, rhs = maurer_check(S, S, Tikhonov(0.1))
    assert lhs == 0.0 and rhs == 0.0


def test_maurer_check_scalar_case():
    lhs, rhs = maurer_check(np.array([[0.5]]), np.array([[0.3]]), Tikhonov(0.1))
    npt.assert_allclose(lhs, 1.0 / 12.0, rtol=1e-12)
    npt.assert_allclose(rhs, 2.0, rtol=1e-14)
    assert lhs <= rhs


def test_maurer_check_random_pairs():
    rng = np.random.default_rng(19)
    for f in (Tikhonov(0.05), SpectralCutoff(0.1), Landweber(12)):
        for _ in range(25):
            S = gram(Abel(1.0), rng.normal(size=(8, 2))) / 8
            T = gram(Abel(1.0), rng.normal(size=(8, 2))) / 8
            lhs, rhs = maurer_check(S, T, f)
            assert lhs <= rhs * (1 + 1e-10)


def test_maurer_check_rejects_non_lipschitz_filter():
    S = np.array([[0.5]])
    with pytest.raises(UsageError):
        maurer_check(S, S, KpcaTruncation(lam=0.1))


def test_maurer_check_rejects_out_of_range_spectrum():
    with pytest.raises(UsageError):
        maurer_check(np.array([[2.0]]), np.array([[0.5]]), Tikhonov(0.1))


def test_projection_score_training_point():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(10, 2))
    G = gram(Abel(1.0), X)
    for i in (0, 4, 9):
        npt.assert_allclose(exact_projection_score(G, G[i]), 1.0,
                            atol=1e-8)


def test_projection_score_orthogonal_component():
    # duplicated point makes the Gram rank 1 with column space span{(1,1)}
    G = gram(Abel(1.0), [[0.0], [0.0]])
    npt.assert_allclose(exact_projection_score(G, np.array([1.0, -1.0])), 0.0,
                        atol=1e-12)


def test_projection_score_matches_cutoff_limit():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(15, 2))
    m = fit(X, Abel(1.0), SpectralCutoff(1e-10))
    G = gram(m.kernel, m.points)
    T = rng.normal(size=(10, 2))
    K = cross_gram(Abel(1.0), X, T)
    scores = score_batch(m, T)
    for j in range(10):
        oracle = exact_projection_score(G, K[:, j])
        assert abs(scores[j] - min(oracle, 1.0)) <= 1e-6


def test_concentration_trials_reproducible_and_within_bound():
    task = get_task("circle")
    obs, bound = concentration_trials(task.draw, Abel(1.0), 100, 2.0,
                                      trials=30, ref_size=3000, seed=0)
    obs2, _ = concentration_trials(task.draw, Abel(1.0), 100, 2.0,
                                   trials=30, ref_size=3000, seed=0)
    npt.assert_array_equal(obs, obs2)
    assert bound == 0.4
    assert (obs > bound).mean() <= 2 * math.exp(-2.0)


def test_concentration_trials_prefix_property():
    task = get_task("circle")
    obs, _ = concentration_trials(task.draw, Abel(1.0), 50, 2.0,
                                  trials=10, ref_size=500, seed=4)
    obs5, _ = concentration_trials(task.draw, Abel(1.0), 50, 2.0,
                                   trials=5, ref_size=500, seed=4)
    npt.assert_array_equal(obs[:5], obs5)


@pytest.mark.parametrize("n, trials, ref_size",
                         [(0, 2, 100), (20, 0, 100), (20, 2, 0), (20, 2, -5)])
def test_harnesses_reject_bad_counts(n, trials, ref_size):
    task = get_task("circle")
    with pytest.raises(UsageError):
        concentration_trials(task.draw, Abel(1.0), n, 2.0, trials, ref_size, seed=0)
    with pytest.raises(UsageError):
        convergence_witness(task.draw, Abel(1.0), [n, 30], trials, ref_size, seed=0)


@pytest.mark.parametrize("n, trials, ref_size",
                         [(20.5, 2, 50), (20, 2, 50.5), (20, 2, np.nan),
                          (20, np.nan, 50), (20, 2.5, 50)])
def test_harnesses_refuse_non_integral_counts(n, trials, ref_size):
    task = get_task("circle")
    with pytest.raises(UsageError, match="must be an integer"):
        concentration_trials(task.draw, Abel(1.0), n, 2.0, trials, ref_size, seed=0)
    if ref_size == 50:  # the Bernstein harness takes no reference size
        with pytest.raises(UsageError, match="must be an integer"):
            bernstein_trials(n, 2.0, trials, seed=0)


class _OffDiagonalHeavy:
    """K(x, x) = 1 and K(x, y) = 2 for x != y: symmetric but not PSD."""

    def _pairwise(self, X, Y):
        return np.where((X[:, None, :] == Y[None, :, :]).all(-1), 1.0, 2.0)


def test_concentration_trials_refuse_a_negative_square():
    # each sample's square comes out near -3/n - 3/ref_size, far below round-off
    task = get_task("circle")
    with pytest.raises(NumericError, match="negative beyond round-off"):
        concentration_trials(task.draw, _OffDiagonalHeavy(), 20, 2.0, 3, 50, seed=0)


def test_bernstein_trials_violation_rate():
    obs, bound = bernstein_trials(100, 2.0, trials=2000, seed=0)
    npt.assert_allclose(bound, 0.22, rtol=1e-14)
    assert (obs > bound).mean() <= 2 * math.exp(-2.0)


def test_bernstein_trials_zero_request_rejected():
    with pytest.raises(UsageError):
        bernstein_trials(100, 2.0, trials=0, seed=0)


def test_convergence_witness_scaled_distance_nonincreasing():
    task = get_task("circle")
    med = convergence_witness(task.draw, Abel(1.0), [50, 100, 200, 400, 800],
                              trials=20, ref_size=4000, seed=0)
    assert med.shape == (5,)
    assert np.all(np.diff(med) <= 0)
