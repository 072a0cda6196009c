import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from _reference import (cross_gram_matrix, gram_matrix, kernel_block, parzen_scores,
                        self_distances)
from setlearn import (DataError, UsageError, Abel, Gaussian, L1Exponential,
                      Linear, Normalized, Product, cross_gram, format_kernel,
                      gram, induced_metric, kernel_eval, metric_matrix,
                      normalize, parse_kernel, parzen_score, product_kernel)
from setlearn.cli import main
from setlearn.kernels import _KERNELS, EPS_PSD, MAX_GRAM_POINTS

# High-precision reference values, frozen from a 40-digit evaluation.
EXP_M1 = 0.36787944117144233      # e^-1
EXP_M2 = 0.1353352832366127       # e^-2
D_ABEL_1 = 1.1243847729568004     # sqrt(2 - 2 e^-1)
INV_SQRT2 = 0.7071067811865476


def test_abel_diagonal_is_one():
    assert kernel_eval(Abel(1.0), [0.0, 0.0], [0.0, 0.0]) == 1.0
    assert kernel_eval(Abel(0.3), [2.0, -1.0, 4.0], [2.0, -1.0, 4.0]) == 1.0


def test_abel_unit_distance():
    v = kernel_eval(Abel(1.0), [0.0], [1.0])
    npt.assert_allclose(v, EXP_M1, rtol=1e-15)


def test_linear_dot_product():
    assert kernel_eval(Linear(), [1.0, 2.0], [3.0, -1.0]) == 1.0


def test_gaussian_value():
    v = kernel_eval(Gaussian(2.0), [0.0], [2.0])
    npt.assert_allclose(v, EXP_M1, rtol=1e-15)


def test_l1_exponential_value():
    v = kernel_eval(L1Exponential(1.0), [0.0, 0.0], [0.5, 0.5])
    npt.assert_allclose(v, EXP_M1, rtol=1e-15)


def test_kernel_eval_rejects_dimension_mismatch():
    with pytest.raises(DataError):
        kernel_eval(Abel(1.0), [0.0, 0.0], [1.0])


@pytest.mark.parametrize("single", [kernel_eval, induced_metric])
def test_single_pair_functions_reject_batches(single):
    """A 2-row batch on either side is refused, not read as its first row."""
    with pytest.raises(DataError, match="expects single points"):
        single(Abel(1.0), [[0.0, 0.0], [5.0, 5.0]], [[1.0, 0.0], [9.0, 9.0]])
    with pytest.raises(DataError, match="expects single points"):
        single(Abel(1.0), [0.0, 0.0], [[1.0, 0.0], [9.0, 9.0]])


def test_kernel_eval_rejects_non_finite():
    with pytest.raises(DataError):
        kernel_eval(Abel(1.0), [np.nan], [1.0])
    with pytest.raises(DataError):
        kernel_eval(Abel(1.0), [0.0], [np.inf])


def test_bandwidth_must_be_positive():
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(UsageError):
            Abel(bad)


def test_gaussian_width_whose_square_underflows_is_refused():
    # sigma**2 == 0 would give exp(-0/0) = NaN wherever two points coincide
    for bad in (1e-320, 1e-170):
        with pytest.raises(UsageError, match="underflows"):
            Gaussian(bad)
    assert Gaussian(1e-150).sigma == 1e-150   # its square, 1e-300, is still normal
    assert Abel(1e-320).sigma == 1e-320


@pytest.mark.parametrize("family, cli_sigma", [(Abel, "1e-320"), (L1Exponential, "1e-320"),
                                               (Gaussian, "1e-160")])
def test_width_kernel_underflows_to_zero_without_a_warning(tmp_path, capsys, family,
                                                          cli_sigma):
    # distance / scale overflows to inf, and exp(-inf) = 0 is the exact kernel value
    kernel = family(1e-160)
    X = np.array([[0.0, 0.0], [1e150, 0.0]])
    assert np.array_equal(gram(kernel, X), np.eye(2))
    assert cross_gram(kernel, X[:1], X[1:])[0, 0] == 0.0
    # the CLI sigma puts unit distances past the float range the same way
    rc = main(["verify-bounds", "--kernel", family.name, "--sigma", cli_sigma, "--n", "5",
               "--trials", "2", "--ref-size", "10", "--out", str(tmp_path / "v.csv")])
    err = capsys.readouterr().err
    assert rc == 0
    assert [line for line in err.splitlines()
            if not line.startswith("warning: kernel is not completely separating")] == []


# Block shapes on both sides of the 256-point tile, and widths from the
# overflow edge (distance / width past the float range) to wide.
_SIZES = st.sampled_from([1, 2, 17, 255, 256, 257, 400])
_WIDTHS = st.sampled_from([1e-320, 1e-300, 1e-160, 0.05, 0.7, 2.0, 1e150])
_FAMILIES = {
    "abel": Abel, "l1exp": L1Exponential, "gaussian": Gaussian,
    "normalized": lambda s: normalize(Linear()),
    "linear": lambda s: Linear(),
    "product": lambda s: product_kernel([(Abel(s), (0, 1)), (Gaussian(1.0), (1, 2)),
                                         (normalize(Linear()), (2, 3))]),
}


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(_FAMILIES)), sigma=_WIDTHS, n=_SIZES, m=_SIZES,
       seed=st.integers(0, 2 ** 32 - 1))
@example(family="abel", sigma=1e-320, n=257, m=255, seed=0)
@example(family="gaussian", sigma=1e-160, n=256, m=400, seed=1)
@example(family="normalized", sigma=1.0, n=400, m=257, seed=2)
@example(family="linear", sigma=1.0, n=400, m=1, seed=3)
@example(family="product", sigma=1e-300, n=255, m=400, seed=4)
def test_blocks_match_the_out_of_place_formulas_bit_for_bit(family, sigma, n, m, seed):
    """Every block built in one buffer equals the fresh-array formulas exactly."""
    try:
        kernel = _FAMILIES[family](sigma)
    except UsageError:   # a Gaussian scale that underflows to 0 is refused
        assert family == "gaussian"
        return
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    Y = np.vstack([X[:1], rng.normal(size=(m - 1, 3))])   # one coincident pair
    assert np.array_equal(kernel._pairwise(X, Y), kernel_block(kernel, X, Y))
    assert np.array_equal(gram(kernel, X), gram_matrix(kernel, X))
    assert np.array_equal(cross_gram(kernel, X, Y), cross_gram_matrix(kernel, X, Y))
    assert np.array_equal(metric_matrix(kernel, X), self_distances(kernel, X))
    if family in ("abel", "l1exp", "gaussian") and sigma <= 1e-160:
        # distance / width overflows to inf, and exp(-inf) = 0 exactly
        assert np.array_equal(cross_gram(kernel, X, Y), (cdist(X, Y) == 0).astype(float))
    if family == "abel" and 0.05 <= sigma <= 2.0:
        assert np.array_equal(parzen_score(X, sigma, Y), parzen_scores(X, sigma, Y))


def test_families_cover_every_kernel():
    """The bit-for-bit and symmetry tests reach every registered family."""
    assert sorted(_FAMILIES) == sorted(_KERNELS)


@pytest.mark.parametrize("n", [200, 600])
def test_gram_of_a_width_kernel_peaks_at_its_own_block(n):
    """``gram`` holds its n x n result and the n x n finiteness mask, nothing more."""
    X = np.random.default_rng(n).normal(size=(n, 2))
    tracemalloc.start()
    try:
        gram(Abel(0.5), X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * 8 * n * n


def test_linear_gram_near_the_float_max_stays_finite():
    """Entries above half the float max are kept as computed, not averaged into inf."""
    a, b = 1.2e154, 1.0e154
    assert np.array_equal(gram(Linear(), [[a], [b]]), [[a * a, a * b], [b * a, b * b]])


def test_metric_zero_at_identical_points():
    for k in (Abel(0.7), Gaussian(1.3), L1Exponential(2.0), Linear()):
        x = [0.4, -1.2]
        assert induced_metric(k, x, x) == 0.0


def test_metric_abel_unit_distance():
    v = induced_metric(Abel(1.0), [0.0, 0.0], [1.0, 0.0])
    npt.assert_allclose(v, D_ABEL_1, rtol=1e-15)


def test_metric_linear_orthogonal_units():
    v = induced_metric(Linear(), [1.0, 0.0], [0.0, 1.0])
    npt.assert_allclose(v, math.sqrt(2.0), rtol=1e-15)


def test_metric_symmetry_and_triangle():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 3))
    for k in (Abel(1.0), L1Exponential(0.5), Gaussian(1.0)):
        D = metric_matrix(k, X)
        npt.assert_allclose(D, D.T, atol=1e-15)
        assert np.all(D >= 0.0)
        # triangle inequality on every triple, small fp slack
        lhs = D[:, None, :]
        rhs = D[:, :, None] + D[None, :, :]
        assert np.all(lhs <= rhs + 1e-12)


def test_metric_identity_of_indiscernibles_separating():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 2))
    D = metric_matrix(Abel(1.0), X)
    off = D[~np.eye(20, dtype=bool)]
    assert off.min() > 0.0


def test_normalize_unit_diagonal_kernel_is_untouched():
    k = Abel(0.5)
    assert normalize(k) is k


def test_normalize_linear_cosine():
    nk = normalize(Linear())
    v = kernel_eval(nk, [2.0, 0.0], [1.0, 1.0])
    npt.assert_allclose(v, INV_SQRT2, rtol=1e-15)
    assert nk.unit_diagonal


def test_normalize_forces_diagonal_one():
    nk = normalize(Linear())
    assert kernel_eval(nk, [5.0, 5.0], [5.0, 5.0]) == 1.0


def test_normalize_rejects_zero_self_inner_product():
    # Linear at the origin has K(x,x)=0; dividing by sqrt(0) must refuse
    # rather than return NaN.
    from setlearn import NumericError
    nk = normalize(Linear())
    with pytest.raises((NumericError, UsageError)):
        kernel_eval(nk, [0.0, 0.0], [1.0, 1.0])


def test_normalize_idempotent():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(8, 2)) + 2.0
    n1 = normalize(Linear())
    n2 = normalize(n1)
    npt.assert_array_equal(gram(n1, X), gram(n2, X))


def test_product_of_abel_factors_matches_l1_exponential():
    p = product_kernel([(Abel(1.0), slice(0, 1)), (Abel(1.0), slice(1, 2))])
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 1.0])
    v = kernel_eval(p, x, y)
    npt.assert_allclose(v, EXP_M2, rtol=1e-15)
    w = kernel_eval(L1Exponential(1.0), x, y)
    assert abs(v - w) <= 4 * np.spacing(max(v, w))


def test_product_l1_identity_on_random_pairs():
    rng = np.random.default_rng(5)
    d = 4
    factors = [(Abel(0.7), slice(i, i + 1)) for i in range(d)]
    p = product_kernel(factors)
    k = L1Exponential(0.7)
    X = rng.normal(size=(50, d))
    Y = rng.normal(size=(50, d))
    a = cross_gram(p, X, Y)
    b = cross_gram(k, X, Y)
    assert np.max(np.abs(a - b)) <= 4 * np.spacing(1.0)


def test_product_diagonal_one_for_unit_factors():
    p = product_kernel([(Abel(1.0), slice(0, 2)), (Gaussian(2.0), slice(2, 3))])
    x = [0.3, -0.1, 5.0]
    assert kernel_eval(p, x, x) == 1.0
    assert p.unit_diagonal


def test_product_single_factor_keeps_its_slice():
    p = product_kernel([(Abel(0.9), slice(0, 1))])
    assert p == Product(((Abel(0.9), (0, 1)),))
    assert parse_kernel(format_kernel(p)) == p
    assert format_kernel(p) == "kernel=product factors=(abel sigma=0.9 @0:1)"
    npt.assert_array_equal(gram(p, [[0.0], [1.0]]), gram(Abel(0.9), [[0.0], [1.0]]))
    # the slice covers one coordinate, so 2-d data is refused, not fit in full
    with pytest.raises(DataError):
        gram(p, [[0.0, 0.0], [1.0, 1.0]])


def test_product_rejects_bad_slices():
    with pytest.raises(UsageError):
        # gap at coordinate 1
        product_kernel([(Abel(1.0), slice(0, 1)), (Abel(1.0), slice(2, 3))])
    with pytest.raises(UsageError):
        # overlap at coordinate 1
        product_kernel([(Abel(1.0), slice(0, 2)), (Abel(1.0), slice(1, 3))])


def test_gram_single_point():
    G = gram(Abel(1.0), [[0.0, 0.0]])
    npt.assert_array_equal(G, [[1.0]])
    assert G.shape == (1, 1)


def test_gram_two_points():
    G = gram(Abel(1.0), [[0.0], [1.0]])
    npt.assert_allclose(G, [[1.0, EXP_M1], [EXP_M1, 1.0]], rtol=1e-15)
    assert G[0, 0] == 1.0 and G[1, 1] == 1.0


def test_gram_psd_random_cloud():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(5, 3))
    G = gram(Abel(1.0), X)
    w = np.linalg.eigvalsh(G)
    assert w.min() >= -5 * EPS_PSD * np.linalg.norm(G, 1)


def test_gram_psd_many_kernels():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(40, 2))
    for k in (Abel(0.5), L1Exponential(1.0), Gaussian(0.8), normalize(Linear())):
        if isinstance(k, Normalized):
            Xk = X + 3.0  # keep self inner products positive
        else:
            Xk = X
        G = gram(k, Xk)
        scale = np.linalg.norm(G, 1)
        assert np.linalg.eigvalsh(G).min() >= -40 * EPS_PSD * scale
        npt.assert_array_equal(G, G.T)


def test_gram_rejects_empty_and_oversized():
    with pytest.raises(DataError):
        gram(Abel(1.0), np.empty((0, 2)))
    too_many = np.zeros((MAX_GRAM_POINTS + 1, 1))
    with pytest.raises(UsageError):
        gram(Abel(1.0), too_many)


def test_cross_gram_matches_elementwise():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(6, 2))
    Y = rng.normal(size=(4, 2))
    C = cross_gram(Abel(1.3), X, Y)
    for i in range(6):
        for j in range(4):
            npt.assert_allclose(C[i, j], kernel_eval(Abel(1.3), X[i], Y[j]),
                                rtol=1e-15)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 300), m=st.integers(1, 300),
       d=st.integers(2, 7), sigma=st.floats(0.2, 3.0))
def test_cross_gram_is_column_major_pairwise(seed, n, m, d, sigma):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    Y = rng.normal(size=(m, d))
    product = product_kernel([(Abel(sigma), (0, 1)), (L1Exponential(sigma), (1, d))])
    for k in (Abel(sigma), L1Exponential(sigma), Gaussian(sigma), product):
        C = cross_gram(k, X, Y)
        assert C.flags.f_contiguous
        npt.assert_array_equal(C, k._pairwise(X, Y))
    # a BLAS inner product need not sum in the same order once transposed
    k = normalize(Linear())
    C = cross_gram(k, X, Y)
    assert C.flags.f_contiguous
    assert np.max(np.abs(C - k._pairwise(X, Y))) <= 1e-15


def _self_block_kernel(name, d):
    """A kernel of the family ``name`` on d-dimensional points."""
    if name == "product" and d == 1:
        return product_kernel([(Linear(), (0, 1))])
    if name == "product":   # a Linear factor on a column slice
        return product_kernel([(Abel(0.7), (0, 1)), (Linear(), (1, d))])
    return _FAMILIES[name](0.7)


@pytest.mark.parametrize("n", [1, 2, 17, 255, 256, 257, 700])
@pytest.mark.parametrize("family", sorted(_KERNELS))
def test_symmetry_exact(family, n):
    """Every family builds its self-block exactly symmetric, whatever the
    input's layout: ``gram`` keeps the block as built."""
    for d in (1, 3, 64):
        kernel = _self_block_kernel(family, d)
        wide = np.random.default_rng(n * d).normal(size=(n, d + 2))
        X = wide[:, 1:d + 1]
        layouts = {"C": X.copy(), "Fortran": np.asfortranarray(X), "list": X.tolist(),
                   "column view": X}
        for layout, points in layouts.items():
            G = gram(kernel, points)
            assert np.array_equal(G, G.T), (d, layout)


@pytest.mark.parametrize("n, d", [(255, 3), (700, 16)])
def test_metric_matrix_of_a_list_reads_one_buffer(n, d):
    """Self-distances of a list match the reference bit for bit: the points
    are converted once, so Linear's X X' is exactly symmetric."""
    X = np.random.default_rng(n + d).normal(size=(n, d))
    assert np.array_equal(metric_matrix(Linear(), X.tolist()), self_distances(Linear(), X))


def test_separating_flags():
    assert Abel(1.0).separating == "complete"
    assert L1Exponential(1.0).separating == "complete"
    assert Gaussian(1.0).separating == "none"
    assert Linear().separating == "linear"
    assert normalize(Linear()).separating == "linear"


def test_unit_diagonal_flags():
    assert Abel(1.0).unit_diagonal
    assert L1Exponential(1.0).unit_diagonal
    assert Gaussian(1.0).unit_diagonal
    assert not Linear().unit_diagonal
    assert normalize(Linear()).unit_diagonal
    p = product_kernel([(Abel(1.0), slice(0, 1)), (Linear(), slice(1, 2))])
    assert not p.unit_diagonal


def test_spec_text_round_trip():
    kernels = [
        Abel(0.5),
        L1Exponential(2.0),
        Gaussian(1e-3),
        Linear(),
        normalize(Linear()),
        product_kernel([(Abel(1.0), slice(0, 2)), (L1Exponential(2.0), slice(2, 3))]),
    ]
    for k in kernels:
        text = format_kernel(k)
        assert parse_kernel(text) == k, text


def test_spec_text_examples():
    assert format_kernel(Abel(0.5)) == "kernel=abel sigma=0.5"
    k = parse_kernel("kernel=abel sigma=0.5")
    assert k == Abel(0.5)
    with pytest.raises(UsageError):
        parse_kernel("kernel=abel")
    with pytest.raises(UsageError):
        parse_kernel("kernel=unknown sigma=1")
    for text in ["abel sigma=abc", "abel sigma=1 sigma=2",
                 "normalized inner=(linear) inner=(linear)"]:
        with pytest.raises(UsageError):
            parse_kernel(text)


# Specs built from the parser's own table of names and keys, with arbitrary
# values mixed with well-formed ones (nested specs included).
_KERNEL_SPECS = st.tuples(
    st.sampled_from(list(_KERNELS)),
    st.lists(st.tuples(st.sampled_from(sorted({k for f in _KERNELS.values() for k in f.keys})),
                       st.one_of(st.text(max_size=8),
                                 st.sampled_from(["0.5", "(linear)", "(abel sigma=1)",
                                                  "(abel sigma=1 @0:1)+(linear @1:2)"])))
             .map("=".join), max_size=3),
).map(lambda t: " ".join([t[0], *t[1]]))


@settings(max_examples=300, deadline=None)
@given(text=_KERNEL_SPECS)
@example(text="abel sigma=")
@example(text="abel sigma=1 sigma=2")
def test_parse_kernel_round_trips_or_raises_usage_error(text):
    try:
        k = parse_kernel(text)
    except UsageError:
        return
    assert parse_kernel(format_kernel(k)) == k
