from functools import partial

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dgemm, dgemv, dtrmm

import setlearn.estimator as estimator

from _reference import apply_r, tikhonov_coefficients
from setlearn import (Abel, Gaussian, KpcaTruncation, L1Exponential,
                      Landweber, Linear, NumericError, SpectralCutoff, SpectralDecomposition,
                      SupportModel, Tikhonov, UsageError, cross_gram, decompose, fit, gram,
                      kpca_lambda_from_rank, load_model, member_mask, normalize,
                      predict_member, product_kernel, regularization_path, save_model, score,
                      score_batch)
from setlearn.estimator import landweber_coefficients

# two Abel(1) points at distance log 2, so K12 = 1/2 exactly up to rounding
TWO_POINTS = np.array([[0.0], [np.log(2.0)]])


def test_fit_single_point_decomposition():
    m = fit(np.array([[0.0, 0.0]]), Abel(1.0), Tikhonov(0.1))
    npt.assert_allclose(decompose(gram(m.kernel, m.points)).eigenvalues, [1.0])


def test_fit_two_point_spectrum():
    m = fit(TWO_POINTS, Abel(1.0), Tikhonov(0.1))
    npt.assert_allclose(decompose(gram(m.kernel, m.points)).eigenvalues, [0.75, 0.25],
                        rtol=1e-14)


def test_score_single_point_tikhonov():
    m = fit(np.array([[0.0, 0.0]]), Abel(1.0), Tikhonov(0.1))
    npt.assert_allclose(score(m, [0.0, 0.0]), 1.0 / 1.1, rtol=1e-12)


def test_score_two_point_cutoff():
    m = fit(TWO_POINTS, Abel(1.0), SpectralCutoff(0.6))
    # eigenvalues {0.75, 0.25}, g = {1/0.75, 1/0.6}, components (1.5, 0.5)/sqrt 2
    npt.assert_allclose(score(m, TWO_POINTS[0]), 41.0 / 48.0, rtol=1e-12)


def test_score_cutoff_below_spectrum_interpolates():
    m = fit(TWO_POINTS, Abel(1.0), SpectralCutoff(0.1))
    npt.assert_allclose(score(m, TWO_POINTS[0]), 1.0, atol=1e-12)
    npt.assert_allclose(score_batch(m, TWO_POINTS), [1.0, 1.0], atol=1e-12)


def test_score_batch_matches_loop():
    rng = np.random.default_rng(43)
    X = rng.normal(size=(20, 3))
    T = rng.normal(size=(15, 3))
    for filt, algorithm in [(Tikhonov(0.05), "cholesky"),
                            (Tikhonov(0.05), "spectral"),
                            (SpectralCutoff(0.02), "spectral"),
                            (Landweber(25), "spectral")]:
        m = fit(X, Abel(1.0), filt, algorithm=algorithm)
        batch = score_batch(m, T)
        loop = np.array([score(m, t) for t in T])
        assert np.max(np.abs(batch - loop)) <= 1e-12


def test_score_batch_single_point_equals_score():
    m = fit(TWO_POINTS, Abel(1.0), Tikhonov(0.2))
    x = np.array([[0.3]])
    npt.assert_array_equal(score_batch(m, x), [score(m, x[0])])


def test_score_range_all_filters():
    rng = np.random.default_rng(47)
    X = rng.normal(size=(40, 2))
    T = np.vstack([rng.normal(size=(40, 2)), rng.normal(size=(10, 2)) * 10.0])
    for filt in (Tikhonov(1e-4), SpectralCutoff(1e-4), Landweber(500),
                 KpcaTruncation(lam=1e-3)):
        m = fit(X, Abel(0.7), filt)
        s = score_batch(m, T)
        assert np.all(s >= 0.0) and np.all(s <= 1.0)


def test_permutation_invariance():
    rng = np.random.default_rng(53)
    X = rng.normal(size=(30, 2))
    T = rng.normal(size=(12, 2))
    perm = rng.permutation(30)
    for filt in (Tikhonov(0.01), SpectralCutoff(0.05), Landweber(40)):
        a = score_batch(fit(X, Abel(1.0), filt), T)
        b = score_batch(fit(X[perm], Abel(1.0), filt), T)
        assert np.max(np.abs(a - b)) <= 1e-12


def test_fit_rejects_non_unit_diagonal_kernel():
    with pytest.raises(UsageError, match="normalize"):
        fit(np.array([[1.0, 0.0], [0.0, 1.0]]), Linear(), Tikhonov(0.1))


def test_fit_rejects_bad_tau():
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(UsageError):
            fit(TWO_POINTS, Abel(1.0), Tikhonov(0.1), tau=bad)


def test_fit_rejects_incompatible_algorithm():
    with pytest.raises(UsageError):
        fit(TWO_POINTS, Abel(1.0), SpectralCutoff(0.1), algorithm="cholesky")
    with pytest.raises(UsageError):
        fit(TWO_POINTS, Abel(1.0), Tikhonov(0.1), algorithm="landweber")
    with pytest.raises(UsageError):
        fit(TWO_POINTS, Abel(1.0), Landweber(5), algorithm="cholesky")


@pytest.mark.parametrize("kernel, f, algorithm, eigenpairs, message", [
    (Abel(0.3), SpectralCutoff(1e-3), "cholesky", None, "applies only to the Tikhonov"),
    (Linear(), Tikhonov(1e-3), "cholesky", None, "unit-diagonal"),
    (Abel(0.3), Tikhonov(1e-3), "bogus", None, "unknown algorithm"),
    (None, Tikhonov(1e-3), "cholesky", None, "unit-diagonal"),
    (Abel(0.3), Tikhonov(1e-3), "spectral", (np.ones(3), np.eye(3)), "2 eigenvalues"),
    (Abel(0.3), Tikhonov(1e-3), "spectral", (np.ones(2), np.eye(3)[:2]), "k x k"),
], ids=["cutoff-cholesky", "linear-kernel", "bogus-path", "no-kernel",
        "three-eigenvalues", "two-by-three-vectors"])
def test_support_model_checks_its_fields(kernel, f, algorithm, eigenpairs, message):
    """The constructor runs the checks ``fit`` documents: a model that could
    only score wrong, or fail deep in LAPACK, is never built.  Eigenpairs of
    the wrong form are refused as the decomposition is built, the wrong count
    for the model by the model."""
    with pytest.raises(UsageError, match=message):
        eigenpairs = eigenpairs and SpectralDecomposition(*eigenpairs)
        SupportModel(TWO_POINTS, kernel, f, algorithm, 0.0, eigenpairs)


def test_support_model_copies_points_and_resolves_kpca_count():
    """Constructed directly, a model keeps a read-only copy of list points and
    turns a kPCA component count into a threshold, as ``fit`` does."""
    rows = np.random.default_rng(102).normal(size=(10, 2)).tolist()
    m = SupportModel(rows, Abel(1.0), KpcaTruncation(components=3), "spectral", 0.0)
    assert isinstance(m.points, np.ndarray) and not m.points.flags.writeable
    rows[0][0] = 99.0
    assert m.points[0, 0] != 99.0
    assert m.filter == KpcaTruncation(
        lam=kpca_lambda_from_rank(decompose(gram(Abel(1.0), m.points)), 3))
    npt.assert_array_equal(score_batch(m, m.points),
                           score_batch(fit(m.points, Abel(1.0), m.filter), m.points))


def test_default_algorithm_per_filter():
    """Without an ``algorithm``, a model scores through the path its filter's family owns."""
    for f, path in [(Tikhonov(0.1), "cholesky"), (Landweber(5), "spectral"),
                    (SpectralCutoff(0.1), "spectral"), (KpcaTruncation(lam=0.1), "spectral")]:
        assert fit(TWO_POINTS, Abel(1.0), f).algorithm == path


def test_tikhonov_coefficients_single_point():
    G = gram(Abel(1.0), [[0.0]])
    kx = np.array([0.5])
    alpha = tikhonov_coefficients(G, kx, 0.3)
    npt.assert_allclose(alpha, kx / 1.3, rtol=1e-14)


def test_tikhonov_coefficients_match_spectral_score():
    G = gram(Abel(1.0), TWO_POINTS)
    kx = np.array([1.0, 0.5])
    lam = 0.25
    alpha = tikhonov_coefficients(G, kx, lam)
    direct = float(alpha @ kx)
    m = fit(TWO_POINTS, Abel(1.0), Tikhonov(lam), algorithm="spectral")
    npt.assert_allclose(direct, score(m, TWO_POINTS[0]), atol=1e-10)


def test_tikhonov_coefficients_residual():
    rng = np.random.default_rng(59)
    for _ in range(10):
        X = rng.normal(size=(25, 3))
        G = gram(Abel(1.0), X)
        kx = np.exp(-np.linalg.norm(X - rng.normal(size=3), axis=1))
        lam = 10.0 ** rng.uniform(-4, -1)
        alpha = tikhonov_coefficients(G, kx, lam)
        residual = (G + 25 * lam * np.eye(25)) @ alpha - kx
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(kx)


def test_landweber_coefficients_single_update():
    G = gram(Abel(1.0), TWO_POINTS)
    kx = np.array([1.0, 0.5])
    alpha = landweber_coefficients(G, kx, 0)
    npt.assert_array_equal(alpha, kx / 2.0)


def test_landweber_coefficients_match_decomposition():
    rng = np.random.default_rng(61)
    X = rng.normal(size=(4, 2))
    G = gram(Abel(1.0), X)
    kx = np.exp(-np.linalg.norm(X - 0.1, axis=1))
    m = 3
    alpha = landweber_coefficients(G, kx, m)
    D = decompose(G)
    g = np.zeros_like(D.eigenvalues)
    s = D.eigenvalues
    for k in range(m + 1):
        g += (1.0 - s) ** k
    oracle = (D.eigenvectors * g) @ D.eigenvectors.T @ kx / 4.0
    assert np.max(np.abs(alpha - oracle)) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(20, 200), d=st.integers(1, 5),
       sigma=st.floats(0.5, 2.0), log_lam=st.floats(-3.0, 0.0), m=st.integers(1, 100))
def test_score_contractions_match_references(seed, n, d, sigma, log_lam, m):
    # the ranges test_score_paths_agree draws from
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (n, d))
    X = np.vstack([pts, rng.uniform(-1.2, 1.2, (20, d))])
    kernel = Abel(sigma)
    Kx = cross_gram(kernel, pts, X)
    alpha = landweber_coefficients(gram(kernel, pts), Kx, m)
    iterated = np.clip(np.einsum("ij,ij->j", alpha, Kx), 0.0, 1.0)
    contracted = score_batch(fit(pts, kernel, Landweber(m)), X)
    assert np.max(np.abs(contracted - iterated)) <= 1e-10
    lam = 10.0 ** log_lam
    one_solve = score_batch(fit(pts, kernel, Tikhonov(lam), algorithm="cholesky"), X)
    spectral = score_batch(fit(pts, kernel, Tikhonov(lam), algorithm="spectral"), X)
    assert np.max(np.abs(one_solve - spectral)) <= 1e-8


def test_cholesky_path_refuses_an_overflowing_shift():
    """n*lam = inf cannot be factorized: the Cholesky path raises
    NumericError, while the spectral path scores through g(s) = 1/(s + lam)."""
    rng = np.random.default_rng(79)
    pts, X = rng.uniform(-1.0, 1.0, (200, 2)), rng.uniform(-1.2, 1.2, (10, 2))
    with pytest.raises(NumericError, match="n\\*lambda overflows"):
        score_batch(fit(pts, Abel(0.8), Tikhonov(1e307), algorithm="cholesky"), X)
    spectral = score_batch(fit(pts, Abel(0.8), Tikhonov(1e307), algorithm="spectral"), X)
    assert np.all(spectral >= 0.0) and np.all(spectral < 1e-300)


def test_cholesky_scores_multiply_in_place_on_column_major_cross_gram(monkeypatch):
    rng = np.random.default_rng(83)
    pts = rng.uniform(-1.0, 1.0, (120, 2))
    X = rng.uniform(-1.2, 1.2, (estimator.SCORE_TILE, 2))   # one tile, one product
    model = fit(pts, Abel(0.8), Tikhonov(1e-3), algorithm="cholesky")
    calls = []

    def spy(alpha, a, b, **kwargs):
        calls.append((b.flags.f_contiguous, bool(kwargs.get("overwrite_b"))))
        return dtrmm(alpha, a, b, **kwargs)

    monkeypatch.setattr(estimator, "dtrmm", spy)
    scores = score_batch(model, X)
    assert calls == [(True, True)]
    score_batch(model, X[:7])
    assert calls == [(True, True)] * 2
    Kx = np.ascontiguousarray(cross_gram(model.kernel, pts, X))
    Y = dtrmm(1.0, model.factor, Kx, lower=1)
    reference = np.clip(dgemv(1.0, np.square(Y), np.ones(model.n), trans=1), 0.0, 1.0)
    npt.assert_array_equal(scores, reference)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 300), m=st.integers(1, 60),
       d=st.integers(1, 4), sigma=st.floats(0.2, 3.0), log_lam=st.floats(-8.0, 0.0))
@example(seed=0, n=1, m=5, d=2, sigma=1.0, log_lam=-8.0)
@example(seed=1, n=50, m=1, d=2, sigma=1.0, log_lam=-3.0)
def test_cholesky_scores_match_forward_substitution(seed, n, m, d, sigma, log_lam):
    """Multiplying by the computed inverse factor scores like the Cholesky
    solve (forward then back substitution) of ``tests/_reference.py``."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (n, d))
    X = rng.uniform(-1.2, 1.2, (m, d))
    kernel, lam = Abel(sigma), 10.0 ** log_lam
    Kx = cross_gram(kernel, pts, X)
    alpha = tikhonov_coefficients(gram(kernel, pts), Kx, lam)
    reference = np.clip(np.einsum("ij,ij->j", alpha, Kx), 0.0, 1.0)
    scores = score_batch(fit(pts, kernel, Tikhonov(lam), algorithm="cholesky"), X)
    assert np.max(np.abs(scores - reference)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 200), d=st.integers(1, 3),
       kernel=st.sampled_from([Abel, Gaussian]), sigma=st.floats(0.1, 3.0),
       family=st.sampled_from(["tikhonov", "cutoff", "landweber", "kpca"]),
       log_lam=st.floats(-14.0, 0.0), m=st.integers(0, 10 ** 9), duplicate=st.booleans())
@example(seed=0, n=1, d=2, kernel=Abel, sigma=1.0, family="tikhonov", log_lam=-3.0, m=0,
         duplicate=False)
@example(seed=1, n=2, d=1, kernel=Gaussian, sigma=0.5, family="cutoff", log_lam=-1.0, m=0,
         duplicate=False)
@example(seed=2, n=20, d=2, kernel=Abel, sigma=1.0, family="cutoff", log_lam=-3.0, m=0,
         duplicate=True)
@example(seed=4, n=50, d=1, kernel=Gaussian, sigma=0.3, family="tikhonov", log_lam=-14.0,
         m=0, duplicate=False)
@example(seed=2, n=20, d=2, kernel=Abel, sigma=1.0, family="tikhonov", log_lam=-3.0, m=0,
         duplicate=True)
@example(seed=3049973137, n=13, d=2, kernel=Gaussian, sigma=1.431717994384286,
         family="tikhonov", log_lam=-13.548222457099746, m=0, duplicate=True)
def test_factor_scores_match_the_v_contraction(seed, n, d, kernel, sigma, family, log_lam,
                                               m, duplicate):
    """A spectral or Landweber model scores through its triangular factor exactly
    when its gains pass the gate (all positive, spread at most MAX_FACTOR_COND),
    within 1e-9 of the V' K_x contraction; a model past the gate scores
    through that contraction itself.  Past the gate an ungated QR factor reads
    3.5e-10 off V' K_x on the Gaussian example at lambda = 1e-14, and 1.35e-9
    off the exact k^2/(1+lambda) on the 13 copies of one point, past
    MEMBER_SLACK, where V' K_x is within 7e-16."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (n, d))
    if duplicate:
        pts[:] = pts[0]
    X = np.vstack([pts, rng.uniform(-1.2, 1.2, (20, d))])
    lam = 10.0 ** log_lam
    f = {"tikhonov": Tikhonov(lam), "cutoff": SpectralCutoff(lam), "landweber": Landweber(m),
         "kpca": KpcaTruncation(lam=lam)}[family]
    model = fit(pts, kernel(sigma), f, algorithm="spectral")
    g = f._score_gains(model.decomposition.eigenvalues)
    gated = g.min() > 0.0 and g.max() <= g.min() * estimator.MAX_FACTOR_COND
    assert (model.factor is not None) == gated
    scores = score_batch(model, X)
    reference = estimator._contract(model, X, None, [g / model.n])[0]
    assert np.max(np.abs(scores - reference)) <= 1e-9
    assert gated or np.array_equal(scores, reference)


def test_rank_one_gram_factors_tikhonov_and_not_cutoff():
    """On 20 copies of one point the Gram has rank 1: the cutoff's gains are
    zero on its null eigenvalues, so it scores through V, while Tikhonov's
    gains stay within the gate and it factorizes."""
    pts = np.zeros((20, 2))
    assert fit(pts, Abel(1.0), SpectralCutoff(1e-3)).factor is None
    assert fit(pts, Abel(1.0), Tikhonov(1e-3), algorithm="spectral").factor is not None


def test_no_model_holds_a_gram(tmp_path):
    """No model holds a Gram, whatever it has built: through scores, a
    regularization path, a save with the decomposition and a load, the only
    n x n arrays in its state are the eigenvectors and the factor.  A loaded
    model that has scored holds its factor alone, on every path: building the
    factor dropped the decomposition it loaded."""
    rng = np.random.default_rng(91)
    pts = rng.uniform(-1.0, 1.0, (50, 2))
    n = len(pts)

    def square_arrays(model):
        """Names of the n x n arrays the model holds, one attribute deep."""
        found = set()
        for name, value in vars(model).items():
            inner = vars(value).items() if hasattr(value, "__dict__") else ()
            for key, v in [(name, value), *((f"{name}.{k}", v) for k, v in inner)]:
                if isinstance(v, np.ndarray) and v.shape == (n, n):
                    found.add(key)
        return found

    held = {"decomposition.eigenvectors", "factor"}
    for f, algorithm, value in [(Tikhonov(1e-3), "spectral", 1e-2),
                                (Landweber(20), "spectral", 10),
                                (Tikhonov(1e-3), "cholesky", 1e-2)]:
        model = fit(pts, Abel(0.8), f, algorithm=algorithm)
        path = tmp_path / f"{f.name}-{algorithm}.txt"
        for step in [lambda m: score_batch(m, pts[:5]), lambda m: predict_member(m, pts[0]),
                     lambda m: regularization_path(m, pts[:5], [value]),
                     lambda m: save_model(m, path, include_decomposition=True)]:
            step(model)
            assert not hasattr(model, "gram")
            assert square_arrays(model) <= held
        assert square_arrays(model) == held
        loaded = load_model(path)
        assert not hasattr(loaded, "gram")
        assert square_arrays(loaded) <= held
        score_batch(loaded, pts[:5])
        assert not hasattr(loaded, "gram")
        assert square_arrays(loaded) == {"factor"}


def test_spectral_products_run_on_scipy_dgemm_without_copies(monkeypatch):
    """``regularization_path`` multiplies V' K_x on one ``dgemm``; a spectral or
    Landweber ``score_batch`` multiplies its cached factor on one ``dtrmm``, in
    place on the column-major cross-Gram.  Neither copies an operand."""
    rng = np.random.default_rng(89)
    pts = rng.uniform(-1.0, 1.0, (120, 2))
    X = rng.uniform(-1.2, 1.2, (estimator.SCORE_TILE, 2))   # one tile, one product
    calls = []

    def spy(name, product):
        def wrapper(alpha, a, b, **kwargs):
            out = product(alpha, a, b, **kwargs)
            calls.append((name, a.flags.f_contiguous, b.flags.f_contiguous, kwargs,
                          np.shares_memory(out, b)))
            return out
        return wrapper

    monkeypatch.setattr(estimator, "dgemm", spy("dgemm", dgemm))
    monkeypatch.setattr(estimator, "dtrmm", spy("dtrmm", dtrmm))
    Kx = cross_gram(Abel(0.8), pts, X)

    def reference(model, f):
        D = decompose(gram(model.kernel, model.points))
        w = f._score_gains(D.eigenvalues) / model.n
        return np.clip(np.square(D.eigenvectors.T @ Kx).T @ w, 0.0, 1.0)

    for f in [Tikhonov(1e-3), Landweber(20)]:
        model = fit(pts, Abel(0.8), f, algorithm="spectral")
        npt.assert_allclose(score_batch(model, X), reference(model, f), rtol=0, atol=1e-13)
        assert model.factor.flags.f_contiguous
    assert calls == [("dtrmm", True, True, {"lower": 0, "overwrite_b": 1}, True)] * 2
    calls.clear()
    grid = [1e-4, 1e-3, 1e-2]
    model = fit(pts, Abel(0.8), Tikhonov(1e-3))
    path = regularization_path(model, X, grid)
    for row, lam in zip(path, grid):
        npt.assert_allclose(row, reference(model, Tikhonov(lam)), rtol=0, atol=1e-13)
    assert calls == [("dgemm", True, True, {}, False)]


@pytest.mark.parametrize("f, algorithm, grid", [
    (Tikhonov(1e-3), "cholesky", None), (Tikhonov(1e-3), "spectral", None),
    (KpcaTruncation(lam=1e-2), "spectral", None), (Tikhonov(1e-3), "cholesky", [1e-3, 1e-2]),
], ids=["cholesky", "spectral-factor", "kpca", "regularization_path"])
def test_scores_go_in_tiles_of_score_tile_queries(monkeypatch, f, algorithm, grid):
    """Two tiles and three queries build three cross-Grams and score bit for bit
    as the three slices scored one by one; a slice of exactly one tile builds one."""
    rng = np.random.default_rng(97)
    pts = rng.uniform(-1.0, 1.0, (60, 2))
    T = estimator.SCORE_TILE
    X = rng.uniform(-1.2, 1.2, (2 * T + 3, 2))
    model = fit(pts, Abel(0.8), f, algorithm=algorithm)
    if grid is None:
        assert (model.factor is None) == isinstance(f, KpcaTruncation)
    run = partial(score_batch, model) if grid is None else (
        lambda Q: regularization_path(model, Q, grid))
    widths = []
    monkeypatch.setattr(estimator, "cross_gram",
                        lambda k, p, Q: widths.append(len(Q)) or cross_gram(k, p, Q))
    whole = run(X)
    assert widths == [T, T, 3]
    assert whole.shape == ((len(X),) if grid is None else (2, len(X)))
    widths.clear()
    slices = [run(X[j:j + T]) for j in range(0, len(X), T)]
    assert widths == [T, T, 3]
    assert np.array_equal(whole, np.concatenate(slices, axis=-1))


_IDENTITY_KERNELS = [
    lambda s, d: Abel(s), lambda s, d: Gaussian(s), lambda s, d: L1Exponential(s),
    lambda s, d: normalize(Linear()),
    lambda s, d: product_kernel([(Abel(s), (0, 1)), (Gaussian(s), (1, d))]),
]
_IDENTITY_MODELS = [
    lambda lam, m: (Tikhonov(lam), "cholesky"),
    lambda lam, m: (Tikhonov(lam), "spectral"),
    lambda lam, m: (Landweber(m), "spectral"),
    lambda lam, m: (SpectralCutoff(lam), "spectral"),
    lambda lam, m: (KpcaTruncation(lam=lam), "spectral"),
]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 80), d=st.integers(2, 3),
       kernel=st.integers(0, len(_IDENTITY_KERNELS) - 1),
       model=st.integers(0, len(_IDENTITY_MODELS) - 1),
       sigma=st.floats(0.3, 2.0), log_lam=st.floats(-4.0, 0.0), m=st.integers(0, 60))
def test_mean_training_score_identity(seed, n, d, kernel, model, sigma, log_lam, m):
    # tr(K_n/n) = 1 for a unit-diagonal kernel, so 1 - mean_i F_n(x_i) is
    # sum_j s_j (1 - r(s_j)) over the spectrum, on every filter and path
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, d))
    k = _IDENTITY_KERNELS[kernel](sigma, d)
    f, algorithm = _IDENTITY_MODELS[model](10.0 ** log_lam, m)
    s = decompose(gram(k, pts)).eigenvalues
    fitted = fit(pts, k, f, algorithm=algorithm)
    gap = 1.0 - np.mean(score_batch(fitted, pts))
    assert abs(gap - np.sum(s * (1.0 - f.r(s)))) <= 1e-12


def test_landweber_score_monotone_in_m():
    rng = np.random.default_rng(67)
    X = rng.normal(size=(10, 2))
    x = X[0]
    prev = -1.0
    for m in (0, 1, 3, 10, 40, 200):
        model = fit(X, Abel(1.0), Landweber(m))
        s = score(model, x)
        assert s >= prev - 1e-13
        prev = s
    assert prev > 0.97


@pytest.mark.parametrize("f, value, algorithm, atol", [
    (Tikhonov(0.05), 0.05, "spectral", 1e-12), (SpectralCutoff(0.05), 0.05, "spectral", 1e-12),
    (KpcaTruncation(lam=0.05), 0.05, "spectral", 0.0), (Landweber(5), 5, "spectral", 1e-12),
], ids=["tikhonov", "cutoff", "kpca", "landweber"])
def test_regularization_path_single_lambda_equals_fit(f, value, algorithm, atol):
    """A one-value path at the model's own strength is its score: bit for bit
    for kPCA, which scores through V' K_x as the path does, and to round-off
    for the filters that score through their triangular factor."""
    rng = np.random.default_rng(71)
    X = rng.normal(size=(15, 2))
    T = rng.normal(size=(6, 2))
    m = fit(X, Abel(1.0), f, algorithm=algorithm)
    path, scores = regularization_path(m, T, [value])[0], score_batch(m, T)
    assert (m.factor is None) == (atol == 0.0)
    assert np.max(np.abs(path - scores)) <= atol


def test_regularization_path_single_point_values():
    m = fit(np.array([[0.0]]), Abel(1.0), Tikhonov(1.0))
    P = regularization_path(m, np.array([[0.0]]), [1.0, 0.1, 0.01])
    npt.assert_allclose(P.ravel(), [0.5, 1.0 / 1.1, 1.0 / 1.01], rtol=1e-12)


def test_regularization_path_matches_refit():
    rng = np.random.default_rng(73)
    X = rng.normal(size=(20, 2))
    T = rng.normal(size=(8, 2))
    grid = [0.3, 0.05, 0.01, 0.002]
    m = fit(X, Abel(1.0), Tikhonov(grid[0]))
    P = regularization_path(m, T, grid)
    for i, lam in enumerate(grid):
        refit = score_batch(fit(X, Abel(1.0), Tikhonov(lam)), T)
        assert np.max(np.abs(P[i] - refit)) <= 1e-10


def test_regularization_path_monotone_at_training_points():
    rng = np.random.default_rng(79)
    X = rng.normal(size=(18, 2))
    grid = [1.0, 0.3, 0.1, 0.03, 0.01, 0.003, 0.001]
    m = fit(X, Abel(1.0), Tikhonov(grid[0]))
    P = regularization_path(m, X, grid)
    assert np.all(np.diff(P, axis=0) >= -1e-12)


def test_regularization_path_landweber_grid():
    rng = np.random.default_rng(83)
    X = rng.normal(size=(12, 2))
    m = fit(X, Abel(1.0), Landweber(5))
    P = regularization_path(m, X, [0, 5, 50])
    for i, it in enumerate([0, 5, 50]):
        refit = score_batch(fit(X, Abel(1.0), Landweber(it)), X)
        assert np.max(np.abs(P[i] - refit)) <= 1e-10
    assert np.all(np.diff(P, axis=0) >= -1e-12)


def test_regularization_path_refuses_a_fractional_landweber_count():
    m = fit(TWO_POINTS, Abel(1.0), Landweber(5))
    with pytest.raises(UsageError):
        regularization_path(m, TWO_POINTS, [5.7])


def test_regularization_path_rejects_empty_grid():
    m = fit(TWO_POINTS, Abel(1.0), Tikhonov(0.1))
    with pytest.raises(UsageError):
        regularization_path(m, TWO_POINTS, [])


def test_predict_member_threshold_arithmetic():
    # lambda = 1/19 places the training-point score at 0.95 (+2 ulp)
    m = fit(np.array([[0.0]]), Abel(1.0), Tikhonov(1.0 / 19.0))
    s = score(m, [0.0])
    assert 0.95 <= s < 0.9501
    assert not predict_member(m, [0.0], 0.04)
    assert predict_member(m, [0.0], 0.05)


def test_predict_member_training_point_cutoff():
    m = fit(TWO_POINTS, Abel(1.0), SpectralCutoff(0.1), tau=0.0)
    assert bool(predict_member(m, TWO_POINTS[0], 1e-9))


def test_predict_member_far_point():
    rng = np.random.default_rng(89)
    X = rng.normal(size=(20, 2))
    m = fit(X, Abel(1.0), Tikhonov(0.01))
    far = np.array([50.0, 50.0])
    eps = np.exp(-np.linalg.norm(X - far, axis=1).min())
    g_max = 1.0 / 0.01
    bound = 20 * g_max * eps ** 2
    assert score(m, far) <= bound
    assert not predict_member(m, far, 0.5)


def test_predict_member_validates_tau():
    m = fit(TWO_POINTS, Abel(1.0), Tikhonov(0.1))
    with pytest.raises(UsageError):
        predict_member(m, TWO_POINTS[0], 1.0)


_TAU_ENTRY_POINTS = {
    "fit": lambda tau: fit(TWO_POINTS, Abel(1.0), Tikhonov(0.1), tau=tau),
    "SupportModel": lambda tau: SupportModel(TWO_POINTS, Abel(1.0), Tikhonov(0.1), None, tau),
    "member_mask": lambda tau: member_mask([0.5, 1.0], tau),
    "predict_member": lambda tau: predict_member(
        fit(TWO_POINTS, Abel(1.0), Tikhonov(0.1)), TWO_POINTS, tau),
}


# predict_member reads tau=None as the model's own margin, so it is left out there.
@pytest.mark.parametrize("entry, tau", [
    (entry, tau) for entry in _TAU_ENTRY_POINTS for tau in (None, "abc", "0.5", 1j, True)
    if (entry, tau) != ("predict_member", None)])
def test_non_real_tau_is_a_usage_error(entry, tau):
    """A margin that is not a real number is refused with the margin's own
    message, not numpy's TypeError."""
    with pytest.raises(UsageError, match=r"tau must lie in \[0, 1\), got "):
        _TAU_ENTRY_POINTS[entry](tau)


@pytest.mark.parametrize("entry", list(_TAU_ENTRY_POINTS))
@pytest.mark.parametrize("tau", [0, 0.5, np.float64(0.5)])
def test_real_tau_is_accepted(entry, tau):
    """Python and numpy reals in [0, 1) stay accepted, integers among them."""
    _TAU_ENTRY_POINTS[entry](tau)


def test_kpca_lambda_from_rank_midpoint():
    D = decompose(gram(Abel(1.0), TWO_POINTS))
    npt.assert_allclose(kpca_lambda_from_rank(D, 1), 0.5, rtol=1e-14)


def test_kpca_lambda_from_rank_boundary_error():
    D = decompose(gram(Abel(1.0), TWO_POINTS))
    with pytest.raises(UsageError):
        kpca_lambda_from_rank(D, 2)


def test_kpca_lambda_from_rank_accepts_eigenvalues():
    X = np.random.default_rng(98).normal(size=(12, 2))
    D = decompose(gram(Abel(1.0), X))
    for M in (1, 4, 11):
        assert kpca_lambda_from_rank(D.eigenvalues, M) == kpca_lambda_from_rank(D, M)


def test_kpca_rank_selection_keeps_top_eigenspaces():
    rng = np.random.default_rng(97)
    X = rng.normal(size=(9, 2))
    D = decompose(gram(Abel(1.0), X))
    M = 4
    lam = kpca_lambda_from_rank(D, M)
    P = apply_r(KpcaTruncation(lam=lam), D)
    # projection rank equals the number of eigenvalues >= lam
    kept = int(np.count_nonzero(D.eigenvalues >= lam))
    assert np.linalg.matrix_rank(P, tol=1e-10) == kept
    distinct = np.unique(D.eigenvalues[D.eigenvalues > 0])[::-1]
    assert kept == np.count_nonzero(D.eigenvalues >= distinct[M - 1])


def test_fit_with_kpca_component_count():
    rng = np.random.default_rng(101)
    X = rng.normal(size=(10, 2))
    m = fit(X, Abel(1.0), KpcaTruncation(components=3))
    assert isinstance(m.filter, KpcaTruncation)
    assert m.filter.lam is not None
    s = score_batch(m, X)
    assert np.all(s >= 0.0) and np.all(s <= 1.0)


def test_duplicate_training_points_are_tolerated():
    X = np.array([[0.0], [0.0], [1.0]])
    for filt in (Tikhonov(0.1), Landweber(30), SpectralCutoff(0.05)):
        m = fit(X, Abel(1.0), filt)
        s = score_batch(m, X)
        assert np.all(np.isfinite(s)) and np.all(s <= 1.0)


def test_model_is_immutable():
    m = fit(TWO_POINTS, Abel(1.0), Tikhonov(0.1))
    with pytest.raises(Exception):
        m.tau = 0.5
    assert not m.points.flags.writeable
