import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import apply_g, apply_r
from setlearn import (Abel, Gaussian, KpcaTruncation, Landweber, Linear,
                      NumericError, SpectralCutoff, Tikhonov, UsageError,
                      cross_gram, decompose, fit, format_filter, gram,
                      normalize, parse_filter, parzen_score, score_batch)
import setlearn.cli as cli
from setlearn.filters import (EIG_SLACK, NULL_EIG, _decompose_in_place, _spectrum_in_place,
                              spectrum)

LIPSCHITZ_FAMILIES = [Tikhonov(0.1), SpectralCutoff(0.1), Landweber(9)]


def test_tikhonov_r_and_g():
    f = Tikhonov(0.1)
    assert f.r(0.1) == 0.5
    assert f.g(0.1) == 5.0


def test_landweber_r_closed_form():
    assert Landweber(1).r(0.5) == 0.75
    # closed form agrees with the truncated geometric sum it abbreviates
    m, s = 7, 0.3
    series = s * sum((1 - s) ** k for k in range(m + 1))
    npt.assert_allclose(Landweber(m).r(s), series, rtol=1e-14)


def test_r_vanishes_at_zero():
    for f in (Tikhonov(0.2), SpectralCutoff(0.3), Landweber(5),
              KpcaTruncation(lam=0.4)):
        assert f.r(0.0) == 0.0


def test_cutoff_g_branches():
    f = SpectralCutoff(0.5)
    assert f.g(0.25) == 2.0   # 1/lambda below the cut
    assert f.g(0.8) == 1.25   # 1/sigma above


def test_landweber_m0_g_is_one():
    f = Landweber(0)
    for s in (0.0, 0.3, 1.0):
        assert f.g(s) == 1.0


def test_g_at_zero():
    assert Tikhonov(0.25).g(0.0) == 4.0
    assert SpectralCutoff(0.25).g(0.0) == 4.0
    assert Landweber(9).g(0.0) == 10.0
    assert KpcaTruncation(lam=0.25).g(0.0) == 0.0
    # The cutoff's null floor acts on its score gains only, not on g: its g
    # keeps 1/lam at sigma = 0, so r = sigma * g holds there too.
    above = np.nextafter(NULL_EIG, 1.0)
    gains = SpectralCutoff(0.25)._score_gains(np.array([0.0, NULL_EIG, above, 0.5]))
    assert gains.tolist() == [0.0, 0.0, 4.0, 2.0]
    tiny = SpectralCutoff(1e-13)._score_gains(np.array([0.0, NULL_EIG, above]))
    assert tiny.tolist() == [0.0, 0.0, 1.0 / above]


def test_lipschitz_constants():
    npt.assert_allclose(Tikhonov(0.01).lipschitz(), 100.0)
    npt.assert_allclose(SpectralCutoff(0.02).lipschitz(), 50.0)
    assert KpcaTruncation(lam=0.1).lipschitz() is None


def test_landweber_lipschitz_matches_numeric_derivative_sup():
    # independent oracle: maximize |dr/ds| of 1-(1-s)^(m+1) on a fine grid
    m = 9
    s = np.linspace(0.0, 1.0, 200001)
    r = 1.0 - (1.0 - s) ** (m + 1)
    slope = np.max(np.abs(np.diff(r) / np.diff(s)))
    assert Landweber(m).lipschitz() == m + 1
    assert slope <= m + 1 + 1e-6
    npt.assert_allclose(slope, m + 1, rtol=1e-4)


def test_cutoff_tie_at_lambda():
    f = SpectralCutoff(0.5)
    assert f.r(0.5) == 1.0
    assert f.g(0.5) == 2.0


def test_kpca_includes_sigma_equal_lambda():
    f = KpcaTruncation(lam=0.5)
    assert f.r(0.5) == 1.0
    assert f.g(0.5) == 2.0
    assert f.r(0.4999) == 0.0
    assert f.g(0.4999) == 0.0


def test_r_range_random_draws():
    rng = np.random.default_rng(19)
    s = rng.uniform(0.0, 1.0, 2000)
    for f in (Tikhonov(1e-3), SpectralCutoff(1e-2), Landweber(200),
              KpcaTruncation(lam=0.3)):
        r = f.r(s)
        assert np.all(r >= 0.0) and np.all(r <= 1.0)


def test_r_sigma_g_consistency():
    rng = np.random.default_rng(21)
    s = rng.uniform(1e-6, 1.0, 1000)
    for f in (Tikhonov(0.05), SpectralCutoff(0.2), Landweber(30),
              KpcaTruncation(lam=0.1)):
        r = f.r(s)
        sg = s * f.g(s)
        assert np.all(np.abs(r - sg) <= 4 * np.spacing(np.maximum(r, 1e-300)))


def test_pointwise_limit_in_lambda():
    # for fixed sigma the deficit 1 - r is bounded by the analytic rate of
    # each family and shrinks along the lambda schedule
    sigma = 0.3
    lams = [10.0 ** -k for k in range(1, 9)]
    prev = np.inf
    for lam in lams:
        deficit = 1.0 - Tikhonov(lam).r(sigma)
        assert deficit <= lam / sigma
        assert deficit <= prev
        prev = deficit
    for lam in lams:
        if lam < sigma:
            assert SpectralCutoff(lam).r(sigma) == 1.0
    prev = np.inf
    for lam in lams[:5]:
        m = int(round(1.0 / lam)) - 1
        deficit = 1.0 - Landweber(m).r(sigma)
        assert deficit <= (1.0 - sigma) ** (m + 1) + 1e-15
        assert deficit <= prev
        prev = deficit


def test_lipschitz_bound_random_pairs():
    rng = np.random.default_rng(23)
    a = rng.uniform(0.0, 1.0, 500)
    b = rng.uniform(0.0, 1.0, 500)
    for f in LIPSCHITZ_FAMILIES:
        L = f.lipschitz()
        lhs = np.abs(f.r(a) - f.r(b))
        assert np.all(lhs <= L * np.abs(a - b) * (1 + 1e-10) + 1e-15)


def test_sigma_domain_check():
    for bad in (1.5, -0.5, np.nan, [0.5, np.inf], None, "abc", [0.1, "x"], 1j,
                [0.1, [0.2]], True):
        with pytest.raises(UsageError):
            Tikhonov(0.1).r(bad)
        with pytest.raises(UsageError):
            Tikhonov(0.1).g(bad)
    # round-off overshoot within the slack is clipped, not rejected
    assert SpectralCutoff(0.5).r(1.0 + 0.5 * EIG_SLACK) == 1.0
    assert Tikhonov(0.1).r(-0.5 * EIG_SLACK) == 0.0


def test_parameter_validation():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(UsageError):
            Tikhonov(bad)
        with pytest.raises(UsageError):
            SpectralCutoff(bad)
    with pytest.raises(UsageError):
        Landweber(-1)
    with pytest.raises(UsageError):
        Landweber(2.5)
    with pytest.raises(UsageError):
        KpcaTruncation()
    with pytest.raises(UsageError):
        KpcaTruncation(lam=0.1, components=2)
    with pytest.raises(UsageError):
        KpcaTruncation(components=0)
    assert Landweber(0).iterations == 0


def test_decompose_single_entry():
    D = decompose(gram(Abel(1.0), [[0.0]]))
    npt.assert_allclose(D.eigenvalues, [1.0])
    npt.assert_allclose(np.abs(D.eigenvectors), [[1.0]])


def test_decompose_two_by_two_closed_form():
    c = 0.5
    G = gram(Abel(1.0), [[0.0], [np.log(2.0)]])  # K12 = 1/2
    npt.assert_allclose(G[0, 1], c, rtol=1e-15)
    D = decompose(G)
    npt.assert_allclose(D.eigenvalues, [(1 + c) / 2, (1 - c) / 2], rtol=1e-14)


def test_decompose_reconstruction_and_trace():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(6, 2))
    G = gram(Abel(1.0), X)
    D = decompose(G)
    A = G / 6
    R = (D.eigenvectors * D.eigenvalues) @ D.eigenvectors.T
    err = np.linalg.norm(R - A) / np.linalg.norm(A)
    assert err <= 6 * 1e-12
    npt.assert_allclose(D.eigenvalues.sum(), 1.0, atol=1e-12)
    assert np.all(np.diff(D.eigenvalues) <= 0)
    assert np.all(D.eigenvalues >= 0.0) and np.all(D.eigenvalues <= 1.0)
    npt.assert_allclose(D.eigenvectors.T @ D.eigenvectors, np.eye(6), atol=1e-12)


def _cli_eigenvalues(pts):
    """The command line's eigenvalues-only build: a Cholesky model under --lambda auto."""
    config = cli._Config(kernel=Abel(1.0), auto_k=None, kernel_note="fixed", family=Tikhonov,
                         filter=None, filter_note="auto", algorithm="cholesky", tau=0.0)
    return cli._build_model(pts, config)[1]


@pytest.mark.parametrize("solve, bound", [
    pytest.param(lambda G, pts: spectrum(G), 1.25, id="spectrum-1.25"),
    pytest.param(lambda G, pts: decompose(G), 3.25, id="decompose-3.25"),
    # the library's own solves build a Gram, counted here, and solve in place on it
    pytest.param(lambda G, pts: fit(pts, Abel(1.0), Tikhonov(1e-3), algorithm="spectral")
                 .decomposition, 3.1, id="model-3.1"),
    pytest.param(lambda G, pts: _cli_eigenvalues(pts), 1.2, id="cli-eigenvalues-1.2"),
])
def test_spectral_solve_peak_memory(solve, bound):
    """The solve works in place on one n^2 buffer of K_n/n: the peak allocation,
    in units of n^2 doubles, is that buffer plus LAPACK's workspace (about 2 n^2
    for the eigenvectors, O(n) for the eigenvalues).  The public solves copy
    the caller's Gram into it; the library's own solves divide their fresh Gram
    in place, so that Gram is the buffer."""
    n = 400
    pts = np.random.default_rng(30).normal(size=(n, 2))
    G = gram(Abel(1.0), pts)
    assert _peak_in_n2(lambda: solve(G, pts), n) <= bound


@pytest.mark.parametrize("solve, in_place", [(decompose, _decompose_in_place),
                                             (spectrum, _spectrum_in_place)])
def test_public_solve_keeps_the_gram_and_the_in_place_bits(solve, in_place):
    """The public solves leave the caller's Gram as it was and give the bits of
    the in-place solve, which divides the Gram it is handed."""
    G = gram(Abel(0.7), np.random.default_rng(31).normal(size=(60, 2)))
    before = G.copy()
    public, own = solve(G), in_place(G.copy())
    assert np.array_equal(G, before)
    if solve is decompose:
        assert np.array_equal(public.eigenvectors, own.eigenvectors)
        public, own = public.eigenvalues, own.eigenvalues
    assert np.array_equal(public, own)


def test_inverse_factor_peak_memory():
    """The Cholesky path shifts, factorizes and inverts a fresh Gram in place,
    on its Fortran view: with nothing held, the peak of the first score is
    that one n^2 buffer and the tile its assembly works in (0.41 n^2 here)."""
    n = 400
    pts = np.random.default_rng(32).normal(size=(n, 2))
    model = fit(pts, Abel(1.0), Tikhonov(1e-3), algorithm="cholesky")
    assert _peak_in_n2(lambda: score_batch(model, pts[:10]), n) <= 1.6


@pytest.mark.parametrize("f, algorithm", [(Tikhonov(1e-3), "spectral"),
                                          (Landweber(20), "landweber")])
def test_spectral_factor_peak_memory(f, algorithm):
    """A spectral model forms V diag(sqrt(g/n)) in one n^2 buffer and runs its
    QR in place there: beyond V, the peak is that one buffer and dgeqrf's
    O(n) workspace.  The model solves on first use, so V is read before the
    factor is measured."""
    n = 400
    pts = np.random.default_rng(33).normal(size=(n, 2))
    model = fit(pts, Abel(1.0), f, algorithm=algorithm)
    model.decomposition
    assert _peak_in_n2(lambda: model.factor, n) <= 1.2


@pytest.mark.parametrize("f, algorithm, peak", [
    (Tikhonov(1e-3), "spectral", 3.1), (Landweber(20), "spectral", 3.1),
    (Tikhonov(1e-3), "cholesky", 1.6)], ids=["spectral", "landweber", "cholesky"])
def test_scored_model_holds_its_factors_and_no_gram(f, algorithm, peak):
    """After fit and one score, every model holds one n x n array, its
    triangular factor: a spectral or Landweber model its R, having dropped V
    once R was built, and a Cholesky model its W.  None holds a Gram.  The
    first score of a spectral model peaks at its eigensolve's 3 n^2."""
    n = 400
    pts = np.random.default_rng(34).normal(size=(n, 2))
    tracemalloc.start()
    try:
        model = fit(pts, Abel(1.0), f, algorithm=algorithm)
        tracemalloc.reset_peak()
        score_batch(model, pts[:10])
        held, top = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.factor is not None and "decomposition" not in vars(model)
    assert held / (8.0 * n * n) <= 1.1
    assert top / (8.0 * n * n) <= peak


def _peak_in_n2(call, n):
    """Peak traced allocation of call(), in units of n^2 doubles."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8.0 * n * n)


@pytest.mark.parametrize("block, bound", [
    (lambda k, X, Y: k._pairwise(X, Y), 1.1),
    (lambda k, X, Y: cross_gram(k, X, Y), 1.25),
    (lambda k, X, Y: gram(k, X), 1.65),
    (lambda k, X, Y: parzen_score(X, k.sigma, Y), 1.1),
], ids=["pairwise", "cross_gram", "gram", "parzen_score"])
def test_kernel_block_peak_memory(block, bound):
    """Each n x n kernel block is built in the one array cdist returns: the
    peak is that array, plus cross_gram's finiteness mask (n^2 / 8), plus the
    Gram's one tile-pair buffer (256^2 doubles) and numpy's iteration buffer."""
    n = 400
    rng = np.random.default_rng(31)
    X, Y = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
    assert _peak_in_n2(lambda: block(Abel(1.0), X, Y), n) <= bound


def test_decompose_rejects_out_of_range_spectrum():
    bad = np.array([[4.0, 0.0], [0.0, 1.0]])  # eigenvalue 2 of G/2
    with pytest.raises(NumericError):
        decompose(bad)


@pytest.mark.parametrize("solve", [decompose, spectrum])
@pytest.mark.parametrize("bad", [np.zeros((0, 0)), np.eye(3)[:2], np.ones(3), "abc", None,
                                 [[1.0, "x"], [0.5, 1.0]], np.eye(2, dtype=complex)])
def test_public_solves_refuse_a_non_matrix(solve, bad):
    with pytest.raises(UsageError):
        solve(bad)


def test_apply_r_cutoff_is_projection():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(8, 2))
    D = decompose(gram(Abel(1.0), X))
    lam = 0.5 * D.eigenvalues[D.eigenvalues > 1e-12].min()
    P = apply_r(SpectralCutoff(lam), D)
    npt.assert_allclose(P @ P, P, atol=1e-10)
    npt.assert_allclose(P, P.T, atol=1e-14)


def test_apply_r_tikhonov_scalar():
    D = decompose(gram(Abel(1.0), [[0.0]]))
    lam = 0.3
    out = apply_r(Tikhonov(lam), D)
    npt.assert_allclose(out, [[1.0 / (1.0 + lam)]], rtol=1e-14)


def test_apply_r_landweber_matches_matrix_polynomial():
    # oracle: I - (I - A)^(m+1) evaluated directly as a matrix power
    rng = np.random.default_rng(37)
    X = rng.normal(size=(4, 2))
    G = gram(Abel(1.0), X)
    A = G / 4
    m = 6
    D = decompose(G)
    P = np.eye(4) - np.linalg.matrix_power(np.eye(4) - A, m + 1)
    npt.assert_allclose(apply_r(Landweber(m), D), P, atol=1e-12)


def test_apply_g_matches_scalar_rule():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(5, 2))
    D = decompose(gram(Abel(1.0), X))
    lam = 0.05
    out = apply_g(Tikhonov(lam), D)
    expected = (D.eigenvectors * (1.0 / (D.eigenvalues + lam))) @ D.eigenvectors.T
    npt.assert_allclose(out, expected, atol=1e-12)


def test_spec_text_round_trip():
    filters = [Tikhonov(1e-3), SpectralCutoff(0.5), Landweber(50),
               KpcaTruncation(lam=0.01), KpcaTruncation(components=3)]
    for f in filters:
        assert parse_filter(format_filter(f)) == f


def test_spec_text_examples():
    assert format_filter(Tikhonov(1e-3)) == "filter=tikhonov lambda=0.001"
    assert parse_filter("filter=landweber m=50") == Landweber(50)
    with pytest.raises(UsageError):
        parse_filter("filter=unknown lambda=0.1")
    for text in ["tikhonov lambda=abc", "tikhonov lambda=", "landweber m=1.5",
                 "tikhonov lambda=1 lambda=2", "kpca components=3 components=4"]:
        with pytest.raises(UsageError):
            parse_filter(text)


def test_kpca_spec_with_both_keys_names_the_choice():
    with pytest.raises(UsageError) as err:
        parse_filter("kpca lambda=0.1 components=3")
    assert str(err.value) == "filter 'kpca' takes only one of lambda= or components="
    with pytest.raises(UsageError, match="unknown filter option 'm'"):
        parse_filter("kpca lambda=0.1 m=3")


def test_landweber_at_refuses_a_non_integral_count():
    assert Landweber(5).at(7) == Landweber(7)
    assert Landweber(5).at(7.0) == Landweber(7)
    assert Landweber(5).at(np.float64(7.0)) == Landweber(7)
    for bad in (5.7, np.float64(0.5), np.nan, np.inf, -1.0):
        with pytest.raises(UsageError, match="iteration count"):
            Landweber(5).at(bad)


# Specs built from the parser's own names and keys, with arbitrary values
# mixed with well-formed ones, reach its number and option branches far
# more often than free text does.
_FILTER_SPECS = st.tuples(
    st.sampled_from(["tikhonov", "cutoff", "landweber", "kpca"]),
    st.lists(st.tuples(st.sampled_from(["lambda", "m", "components"]),
                       st.one_of(st.text(max_size=8), st.sampled_from(["0.5", "1e-3", "3"])))
             .map("=".join), max_size=3),
).map(lambda t: " ".join([t[0], *t[1]]))


@settings(max_examples=300, deadline=None)
@given(text=_FILTER_SPECS)
@example(text="tikhonov lambda=")
@example(text="tikhonov lambda=abc")
def test_parse_filter_round_trips_or_raises_usage_error(text):
    try:
        f = parse_filter(text)
    except UsageError:
        return
    assert parse_filter(format_filter(f)) == f


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 80), d=st.integers(1, 3),
       kernel=st.sampled_from([Abel(0.7), Gaussian(0.7), normalize(Linear())]))
def test_spectrum_matches_decompose(seed, n, d, kernel):
    X = np.random.default_rng(seed).normal(size=(n, d))
    G = gram(kernel, X)
    s = spectrum(G)
    npt.assert_allclose(s, decompose(G).eigenvalues, rtol=0, atol=1e-12)
    assert np.all(np.diff(s) <= 0.0)
    assert s[-1] >= 0.0 and s[0] <= 1.0
    # a spectrum shifted past either end of [0, 1] is clamped within
    # EIG_SLACK and refused beyond it
    eye = n * np.eye(n)
    assert spectrum(G + (1.0 - s[0] + 0.5 * EIG_SLACK) * eye)[0] == 1.0
    assert spectrum(G - (s[-1] + 0.5 * EIG_SLACK) * eye)[-1] == 0.0
    for shift in (1.0 - s[0] + 10 * EIG_SLACK, -s[-1] - 10 * EIG_SLACK):
        with pytest.raises(NumericError):
            spectrum(G + shift * eye)


@pytest.mark.parametrize("solve", [decompose, spectrum])
@pytest.mark.parametrize("n, where, value", [
    (1, (0, 0), np.nan), (2, (0, 0), np.nan), (2, (1, 0), np.inf), (50, (7, 3), np.nan),
    (50, (0, 0), -np.inf)])
def test_eig_rejects_non_finite_matrix(solve, n, where, value):
    """LAPACK can return finite eigenvalues for a matrix holding a NaN (n = 2,
    NaN on the diagonal); the solve refuses the matrix instead."""
    A = gram(Abel(0.7), np.random.default_rng(n).normal(size=(n, 2))).copy()
    A[where] = A[where[::-1]] = value
    with pytest.raises(NumericError, match="non-finite"):
        solve(A)


# Every strength a spec can carry: lam any positive finite float, m any
# nonnegative integer.  The constructor may refuse a strength; one it
# accepts must give a filter that keeps the invariants.
_STRENGTHS = st.one_of(
    st.tuples(st.sampled_from([Tikhonov, SpectralCutoff, KpcaTruncation]),
              st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
    st.tuples(st.just(Landweber), st.integers(min_value=0)),
)


@settings(max_examples=500, deadline=None)
@given(spec=_STRENGTHS, s=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@example(spec=(Tikhonov, 5e-324), s=[0.0])
@example(spec=(Landweber, 280), s=[0.125, 0.14515713378109776])
@example(spec=(Landweber, 10 ** 400), s=[0.5])
@example(spec=(Tikhonov, 1e-09), s=[1.0, 0.9999999999999999])
def test_filter_invariants_hold_on_the_unit_interval(spec, s):
    """r maps [0, 1] into [0, 1], equals s * g within a few ulps and never
    decreases in s, for every family at every strength it accepts."""
    family, strength = spec
    try:
        f = family(strength)
    except UsageError:
        return
    s = np.sort(np.asarray(s))
    r, g = f.r(s), f.g(s)
    assert np.all((r >= 0.0) & (r <= 1.0)), r
    assert np.all(np.abs(r - s * g) <= 4 * np.spacing(r)), (r, s * g)
    assert np.all(np.diff(r) >= 0.0), r
