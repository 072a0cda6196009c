import math

import numpy as np
import numpy.testing as npt
import pytest
from _reference import hausdorff_distance, parzen_scores, union_of_balls
from scipy.spatial.distance import cdist

from setlearn import (Abel, DataError, NumericError, UsageError, devroye_wise_member,
                      evaluation, hausdorff, parzen_score, roc_auc,
                      symdiff_measure)


def test_hausdorff_two_singletons():
    assert hausdorff(np.array([[0.0]]), np.array([[1.0]])) == 1.0


def test_hausdorff_subset_asymmetry_surfaces():
    A = np.array([[0.0]])
    B = np.array([[0.0], [1.0]])
    assert hausdorff(A, B) == 1.0
    # both one-sided distances enter the max, so the order does not matter
    assert hausdorff(B, A) == 1.0


def test_hausdorff_identical_sets():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(20, 2))
    assert hausdorff(A, A) == 0.0


def test_hausdorff_metric_axioms():
    rng = np.random.default_rng(5)
    sets = [rng.normal(size=(rng.integers(2, 8), 2)) for _ in range(4)]
    for A in sets:
        for B in sets:
            npt.assert_allclose(hausdorff(A, B), hausdorff(B, A), rtol=1e-12)
    for A in sets:
        for B in sets:
            for C in sets:
                assert hausdorff(A, C) <= hausdorff(A, B) + hausdorff(B, C) + 1e-12


def test_hausdorff_rejects_empty_set():
    with pytest.raises(DataError):
        hausdorff(np.empty((0, 2)), np.array([[0.0, 0.0]]))


def test_symdiff_identical_indicators():
    a = np.array([True, False, True, True])
    assert symdiff_measure(a, a, 0.25) == 0.0


def test_symdiff_interval_lengths():
    # [0,1] vs [0,2] discretized at step 0.01 over [0,3]
    xs = np.arange(0.0, 3.0, 0.01) + 0.005
    a = xs <= 1.0
    b = xs <= 2.0
    v = symdiff_measure(a, b, 0.01)
    assert abs(v - 1.0) <= 0.01


def test_symdiff_disjoint_intervals():
    xs = np.arange(0.0, 3.0, 0.01) + 0.005
    a = xs <= 1.0
    b = (xs > 1.0) & (xs <= 2.0)
    v = symdiff_measure(a, b, 0.01)
    assert abs(v - 2.0) <= 0.02


def test_symdiff_pseudometric():
    rng = np.random.default_rng(7)
    inds = [rng.random(50) < 0.5 for _ in range(3)]
    a, b, c = inds
    dab = symdiff_measure(a, b, 0.1)
    npt.assert_allclose(dab, symdiff_measure(b, a, 0.1), rtol=1e-15)
    assert symdiff_measure(a, c, 0.1) <= dab + symdiff_measure(b, c, 0.1) + 1e-12


def test_symdiff_validates_inputs():
    with pytest.raises(DataError):
        symdiff_measure(np.ones(3, dtype=bool), np.ones(4, dtype=bool), 0.1)
    with pytest.raises(UsageError):
        symdiff_measure(np.ones(3, dtype=bool), np.ones(3, dtype=bool), 0.0)


def test_auc_perfect_separation():
    scores = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
    labels = np.array([True, True, True, False, False])
    _, auc = roc_auc(scores, labels)
    assert auc == 1.0


def test_auc_all_scores_equal():
    scores = np.full(6, 0.5)
    labels = np.array([True, True, True, False, False, False])
    _, auc = roc_auc(scores, labels)
    assert auc == 0.5


def test_auc_pair_enumeration_oracle():
    # pairs: (0.9 beats 0.85 and 0.1, 0.8 loses to 0.85, beats 0.1) -> 3/4
    scores = np.array([0.9, 0.8, 0.85, 0.1])
    labels = np.array([True, True, False, False])
    _, auc = roc_auc(scores, labels)
    npt.assert_allclose(auc, 0.75, rtol=1e-15)


def test_auc_half_credit_tie():
    # the tie at 0.85 counts half: (1 + 1 + 0.5 + 1)/4
    scores = np.array([0.9, 0.85, 0.85, 0.1])
    labels = np.array([True, True, False, False])
    _, auc = roc_auc(scores, labels)
    npt.assert_allclose(auc, 0.875, rtol=1e-15)


def test_auc_matches_brute_force_on_random_scores():
    rng = np.random.default_rng(11)
    scores = np.round(rng.random(60), 2)  # rounding forces some ties
    labels = rng.random(60) < 0.4
    pos = scores[labels]
    neg = scores[~labels]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    expected = (wins + 0.5 * ties) / (len(pos) * len(neg))
    _, auc = roc_auc(scores, labels)
    npt.assert_allclose(auc, expected, rtol=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(13)
    scores = rng.random(40)
    labels = rng.random(40) < 0.5
    _, a = roc_auc(scores, labels)
    _, b = roc_auc(np.exp(3.0 * scores) + 7.0, labels)
    npt.assert_allclose(a, b, rtol=1e-12)


def test_auc_label_swap_complement():
    rng = np.random.default_rng(17)
    scores = rng.random(30)  # continuous draws, ties have probability zero
    labels = rng.random(30) < 0.5
    _, a = roc_auc(scores, labels)
    _, b = roc_auc(scores, ~labels)
    npt.assert_allclose(a + b, 1.0, rtol=1e-12)


def test_auc_rejects_single_class():
    with pytest.raises(DataError):
        roc_auc(np.array([0.1, 0.2]), np.array([True, True]))


def test_roc_points_shape_and_endpoints():
    scores = np.array([0.9, 0.8, 0.85, 0.1])
    labels = np.array([True, True, False, False])
    points, _ = roc_auc(scores, labels)
    npt.assert_array_equal(points[0], [0.0, 0.0])
    npt.assert_array_equal(points[-1], [1.0, 1.0])
    # one point per distinct threshold plus the origin
    assert points.shape == (len(np.unique(scores)) + 1, 2)
    assert np.all(np.diff(points[:, 0]) >= 0)
    assert np.all(np.diff(points[:, 1]) >= 0)


def test_parzen_at_training_point():
    v = parzen_score(np.array([[0.0]]), 0.5, [0.0])
    npt.assert_allclose(v, 1.0 / 0.5, rtol=1e-14)


def test_parzen_at_distance_h():
    h = 0.7
    v = parzen_score(np.array([[0.0]]), h, [h])
    npt.assert_allclose(v, math.exp(-1.0) / h, rtol=1e-14)


def test_parzen_quadrature_constant():
    # the profile integrates to 2 in one dimension (it is unnormalized;
    # int exp(-|u|) du = 2), independent of h
    for h in (0.5, 1.0):
        xs = np.arange(-30.0, 30.0, 0.01) + 0.005
        vals = parzen_score(np.array([[0.0]]), h, xs[:, None])
        integral = vals.sum() * 0.01
        npt.assert_allclose(integral, 2.0, rtol=1e-3)


def test_parzen_batch_matches_loop():
    rng = np.random.default_rng(19)
    train = rng.normal(size=(15, 2))
    T = rng.normal(size=(8, 2))
    batch = parzen_score(train, 0.4, T)
    loop = [parzen_score(train, 0.4, t) for t in T]
    npt.assert_allclose(batch, loop, rtol=1e-14)


def test_parzen_validates_h():
    for h in (0.0, -1.0, math.nan):
        with pytest.raises(UsageError, match="bandwidth must be positive"):
            parzen_score(np.array([[0.0]]), h, [0.0])


@pytest.mark.parametrize("h, d", [
    (1e200, 2),            # h^d overflows (a Python float raises OverflowError)
    (np.float64(1e200), 2),
    (math.inf, 1),
    (1e-170, 2),           # h^d underflows to 0
    (1e-160, 2),           # h^d is subnormal: n h^d is finite, n / (n h^d) is not
])
def test_parzen_refuses_a_normalizer_outside_the_float_range(h, d):
    train = np.zeros((3, d))
    with pytest.raises(NumericError, match=r"Parzen normalizer 1/\(n\*h\^d\) outside "
                                           r"the float range at n=3, d=%d" % d):
        parzen_score(train, h, np.zeros(d))


def test_parzen_at_the_edge_of_the_float_range_is_finite():
    # h^d = 1e-300 and 1e300: the normalizer and every score stay finite
    for h in (1e-150, 1e150):
        v = parzen_score(np.zeros((2, 2)), h, np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.all(np.isfinite(v)) and v[0] > 0


def test_devroye_wise_membership():
    train = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert devroye_wise_member(train, 0.1, [0.0, 0.0])
    assert not devroye_wise_member(train, 0.1, [0.5, 0.5])
    # closed-ball convention at the boundary
    assert devroye_wise_member(train, 0.5, [0.5, 0.0])
    batch = devroye_wise_member(train, 0.25, np.array([[0.1, 0.0], [3.0, 3.0]]))
    npt.assert_array_equal(batch, [True, False])


def test_devroye_wise_validates_eps():
    with pytest.raises(UsageError):
        devroye_wise_member(np.array([[0.0]]), -1.0, [0.0])


@pytest.mark.parametrize("n, m, d", [(300, 500, 2), (1, 7, 1), (163, 1, 3),
                                     (2 ** 16 + 5, 3, 2)],
                         ids=["ragged-blocks", "one-train-point", "one-query", "one-row-blocks"])
def test_row_blocks_keep_the_bits_of_one_whole_block(n, m, d):
    """Parzen, Hausdorff and union-of-balls in row blocks of at most
    ``BLOCK_ENTRIES`` entries equal the whole-block formulas bit for bit, with
    coincident queries and training points; past 2^16 points a block is one row."""
    rng = np.random.default_rng([n, m, d])
    train = rng.uniform(-1.0, 1.0, (n, d))
    X = rng.uniform(-1.2, 1.2, (m, d))
    X[1::2] = train[rng.integers(0, n, len(X[1::2]))]   # coincident points
    # a query's own distance to the sample: one ball's closed edge
    eps = float(np.quantile(cdist(X, train).min(axis=1), 0.75, method="lower"))
    assert np.array_equal(parzen_score(train, 0.5, X), parzen_scores(train, 0.5, X))
    assert np.array_equal(devroye_wise_member(train, eps, X), union_of_balls(train, eps, X))
    assert hausdorff(X, train) == hausdorff_distance(X, train)
    assert hausdorff(train, X) == hausdorff_distance(train, X)
    # the 1-d single-point forms
    x = X[-1]
    assert parzen_score(train, 0.5, x) == parzen_scores(train, 0.5, x[None])[0]
    assert devroye_wise_member(train, eps, x) is bool(union_of_balls(train, eps, x[None])[0])
    assert hausdorff(x, train) == hausdorff_distance(x[None], train)


def test_query_rows_go_in_blocks_of_block_entries(monkeypatch):
    """Against 300 points a block holds 218 query rows: 500 queries are three
    blocks of each query-by-set block, and one query is one block."""
    assert evaluation.BLOCK_ENTRIES == 2 ** 16
    rng = np.random.default_rng(11)
    train, X = rng.uniform(-1.0, 1.0, (300, 2)), rng.uniform(-1.2, 1.2, (500, 2))
    rows = []
    monkeypatch.setattr(evaluation, "cdist", lambda Q, B: rows.append(len(Q)) or cdist(Q, B))
    pairwise = Abel._pairwise
    monkeypatch.setattr(Abel, "_pairwise",
                        lambda k, Q, B: rows.append(len(Q)) or pairwise(k, Q, B))
    for call in [lambda: parzen_score(train, 0.5, X), lambda: devroye_wise_member(train, 0.1, X),
                 lambda: hausdorff(X, train)]:
        rows.clear()
        call()
        assert rows == [218, 218, 64]
    rows.clear()
    parzen_score(train, 0.5, X[0])
    devroye_wise_member(train, 0.1, X[0])
    assert rows == [1, 1]
    rows.clear()
    hausdorff(train, X)   # 300 rows of A against 500 points: 131 rows a block
    assert rows == [131, 131, 38]
