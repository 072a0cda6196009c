import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setlearn import (Abel, EmpiricalOperator, Gaussian, KpcaTruncation,
                      L1Exponential, Landweber, Linear, SpectralCutoff,
                      Tikhonov, UsageError, approximation_error_bound,
                      bernstein_bound, concentration_bound, cross_gram,
                      decompose, effective_dimension, exact_projection_score,
                      finite_sample_bound, fit, gram, get_task, hs_distance,
                      hs_norm, maurer_check, normalize, product_kernel,
                      sample_error_bound, score_batch)
from setlearn.oracles import (_row_sums, _self_sum, bernstein_trials,
                              concentration_trials, convergence_witness)


def _op(points, kernel=Abel(1.0)):
    return EmpiricalOperator(np.asarray(points, dtype=float), kernel)


def test_hs_distance_zero_on_identical_samples():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 2))
    assert hs_distance(_op(X), _op(X)) == 0.0


def test_hs_distance_far_singletons():
    # Abel(1) at distance 50: K(x,y) ~ 2e-22, so the distance is sqrt(2)
    a = _op([[0.0]])
    b = _op([[50.0]])
    npt.assert_allclose(hs_distance(a, b), math.sqrt(2.0), rtol=1e-14)


def test_hs_distance_singleton_expansion():
    # ||K_x(x)K_x - K_y(x)K_y||^2 expands to 2 - 2 K(x,y)^2
    x, y = [[0.0]], [[1.3]]
    k = Abel(1.0)
    kxy = math.exp(-1.3)
    expected = math.sqrt(2.0 - 2.0 * kxy ** 2)
    npt.assert_allclose(hs_distance(_op(x, k), _op(y, k)), expected, rtol=1e-12)


def test_hs_distance_same_singleton_point():
    assert hs_distance(_op([[0.5, 0.5]]), _op([[0.5, 0.5]])) == 0.0


def test_hs_distance_metric_axioms():
    rng = np.random.default_rng(5)
    ops = [_op(rng.normal(size=(rng.integers(3, 9), 2))) for _ in range(4)]
    for a in ops:
        for b in ops:
            dab = hs_distance(a, b)
            assert dab >= 0.0
            npt.assert_allclose(dab, hs_distance(b, a), rtol=1e-12)
    for a in ops:
        for b in ops:
            for c in ops:
                assert (hs_distance(a, c)
                        <= hs_distance(a, b) + hs_distance(b, c) + 1e-12)


def test_hs_distance_rejects_kernel_mismatch():
    with pytest.raises(UsageError):
        hs_distance(_op([[0.0]], Abel(1.0)), _op([[0.0]], Abel(2.0)))


def test_hs_norm_trace_identity():
    # ||T_n||_HS^2 = mean of K^2 entries <= trace T_n = 1
    rng = np.random.default_rng(7)
    X = rng.normal(size=(25, 3))
    v = hs_norm(_op(X))
    G = gram(Abel(1.0), X).entries
    npt.assert_allclose(v, math.sqrt((G ** 2).mean()), rtol=1e-12)
    assert v <= 1.0 + 1e-12


def test_hs_blockwise_equals_direct():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 2))
    Y = rng.normal(size=(21, 2))
    a = hs_distance(_op(X), _op(Y))
    b = hs_distance(_op(X), _op(Y), block=7)
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
    npt.assert_allclose(_self_sum(kernel, X, tile),
                        (kernel._pairwise(X, X) ** 2).sum(), rtol=1e-12)
    npt.assert_allclose(_row_sums(kernel, X, Y, tile),
                        (kernel._pairwise(X, Y) ** 2).sum(1), rtol=1e-12)


def test_concentration_bound_values():
    assert concentration_bound(100, 2.0) == 0.4
    assert concentration_bound(100, 0.5) == 0.2


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
    S = gram(Abel(1.0), rng.normal(size=(5, 2))).entries / 5
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
            S = gram(Abel(1.0), rng.normal(size=(8, 2))).entries / 8
            T = gram(Abel(1.0), rng.normal(size=(8, 2))).entries / 8
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
        npt.assert_allclose(exact_projection_score(G, G.entries[i]), 1.0,
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
    G = m.gram
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
