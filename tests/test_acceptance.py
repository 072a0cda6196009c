"""End-to-end acceptance suite: one test per contract the library ships with.

Each test checks a single yes/no property at its stated tolerance --
filter-family contracts, perturbation bounds, score-path agreement, the
interpolation limit, concentration and consistency of the estimator,
benchmark quality, high-precision agreement of the bound calculators,
and byte-level determinism of the command line.  Tolerances and budgets
are part of the contract and are asserted, not logged.

Run ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
property.  The MNIST benchmark needs user-supplied data (see README) and
skips unless SETLEARN_MNIST is set.
"""

import math
import os
import time

import mpmath
import numpy as np
import pytest

from _reference import exact_projection_score, maurer_check
from golden_corpus import one_thread
from setlearn.cli import main as cli_main
from setlearn.estimator import (fit, landweber_coefficients, member_mask,
                                score_batch)
from setlearn.evaluation import hausdorff, parzen_score, roc_auc
from setlearn.filters import KpcaTruncation, Landweber, SpectralCutoff, Tikhonov, decompose
from setlearn.kernels import Abel, cross_gram, gram
from setlearn.model_io import load_model, save_model
from setlearn.oracles import (approximation_error_bound, bernstein_bound,
                              concentration_trials, effective_dimension,
                              finite_sample_bound, sample_error_bound)
from setlearn.selection import lambda_curvature, rate_lambda, width_heuristic
from setlearn.synth import (get_task, reference_grid, reference_support,
                            sample, task_names)

# Relative headroom on inequality comparisons; absorbs round-off of the
# comparison itself, never a modeling error.
INEQ_SLACK = 1e-10

# A sample mean of n i.i.d. draws lands outside the concentration bound
# with probability at most 2 e^-delta; at delta = 2 that is this often.
TOLERATED_FRACTION = 2.0 * math.exp(-2.0)   # 0.2706705664732254


# ---------------------------------------------------------------------------
# 1. Filter-family contracts on random draws.


def test_filter_families_hold_their_contracts():
    rng = np.random.default_rng(99)
    t0 = time.monotonic()
    for _ in range(10_000):
        lam = float(10.0 ** rng.uniform(-6, 1))
        m = int(rng.integers(0, 200))
        s = rng.uniform(0.0, 1.0, 2)
        for f in (Tikhonov(lam), SpectralCutoff(lam), Landweber(m)):
            r = f.r(np.array([0.0, s[0], s[1]]))
            g = f.g(s)
            L = f.lipschitz()
            assert np.all(r >= 0.0) and np.all(r <= 1.0), f"{f}: range"
            assert r[0] == 0.0, f"{f}: r(0)"
            assert np.all(np.abs(r[1:] - s * g)
                          <= INEQ_SLACK * np.maximum(1.0, r[1:])), f"{f}: r = sigma*g"
            assert (abs(r[1] - r[2])
                    <= L * abs(s[0] - s[1]) * (1.0 + INEQ_SLACK)), f"{f}: Lipschitz"
    assert time.monotonic() - t0 < 5.0, "filter property suite exceeded 5 s"


# ---------------------------------------------------------------------------
# 2. Perturbation bound for matrix functions of Lipschitz filters.


def _random_symmetric_pair(rng, dim=8):
    out = []
    for _ in range(2):
        Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        out.append((Q * rng.uniform(0.0, 1.0, dim)) @ Q.T)
    return out


def test_matrix_perturbation_bound_holds():
    t0 = time.monotonic()
    for pair in range(200):
        rng = np.random.default_rng([17, pair])
        S, T = _random_symmetric_pair(rng)
        for f in (Tikhonov(float(10.0 ** rng.uniform(-3, 0))),
                  SpectralCutoff(float(rng.uniform(0.05, 0.95))),
                  Landweber(int(rng.integers(1, 60)))):
            lhs, rhs = maurer_check(S, T, f)
            assert lhs <= rhs * (1.0 + INEQ_SLACK), f"pair {pair}, {f}"
    assert time.monotonic() - t0 < 10.0, "perturbation suite exceeded 10 s"


# ---------------------------------------------------------------------------
# 3. The two score paths compute the same function, and Landweber's spectral
# gain the same as its gradient iteration.


def test_score_paths_agree():
    rng = np.random.default_rng(413)
    worst_tik, worst_lw = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(20, 201))
        d = int(rng.integers(1, 6))
        pts = rng.uniform(-1.0, 1.0, (n, d))
        kernel = Abel(float(rng.uniform(0.5, 2.0)))
        # lambda stays >= 1e-3 so the direct solve is well conditioned and
        # the comparison measures path agreement, not conditioning.
        lam = float(10.0 ** rng.uniform(-3, 0))
        m = int(rng.integers(1, 101))
        X = np.vstack([pts, rng.uniform(-1.2, 1.2, (20, d))])
        a = score_batch(fit(pts, kernel, Tikhonov(lam), algorithm="spectral"), X)
        b = score_batch(fit(pts, kernel, Tikhonov(lam), algorithm="cholesky"), X)
        worst_tik = max(worst_tik, float(np.max(np.abs(a - b))))
        c = score_batch(fit(pts, kernel, Landweber(m)), X)
        # reference: the m+1 step gradient iteration, never factorizing K_n
        Kx = cross_gram(kernel, pts, X)
        alpha = landweber_coefficients(gram(kernel, pts), Kx, m)
        e = np.clip(np.einsum("ij,ij->j", alpha, Kx), 0.0, 1.0)
        worst_lw = max(worst_lw, float(np.max(np.abs(c - e))))
    assert worst_tik <= 1e-8, f"spectral vs cholesky drift {worst_tik:.3e}"
    assert worst_lw <= 1e-10, f"iterative vs polynomial drift {worst_lw:.3e}"


# ---------------------------------------------------------------------------
# 4. Spectral cutoff below the spectrum reaches the interpolation limit.


def test_cutoff_reaches_the_interpolation_limit():
    rng = np.random.default_rng(20260823)
    for _ in range(12):
        n = int(rng.integers(10, 41))
        d = int(rng.integers(1, 4))
        pts = rng.uniform(-1.0, 1.0, (n, d))
        kernel = Abel(float(rng.uniform(0.5, 2.0)))
        g = gram(kernel, pts)
        eigs = decompose(g).eigenvalues
        # Instance precondition: the whole spectrum must clear both the
        # cutoff's null floor and the pseudo-inverse rank tolerance, or
        # the two sides would round the borderline directions differently.
        assert eigs.min() > 1e-8, f"ill-posed instance drawn (min eig {eigs.min():.3e})"
        model = fit(pts, kernel, SpectralCutoff(1e-10))
        s_train = score_batch(model, pts)
        assert np.all(s_train >= 1.0 - 1e-6) and np.all(s_train <= 1.0 + 1e-6), \
            f"training scores left [1 - 1e-6, 1]: {s_train.min():.12f}"
        off = rng.uniform(-1.5, 1.5, (50, d))
        s_off = score_batch(model, off)
        kx = cross_gram(kernel, pts, off)
        exact = np.array([exact_projection_score(g, kx[:, j]) for j in range(50)])
        gap = float(np.max(np.abs(s_off - exact)))
        assert gap <= 1e-6, f"cutoff vs pseudo-inverse gap {gap:.3e}"


# ---------------------------------------------------------------------------
# 5. Concentration of the empirical operator around a dense reference.


def test_operator_concentration_within_tolerated_fraction():
    task = get_task("circle")
    t0 = time.monotonic()
    observed, bound = concentration_trials(task.draw, Abel(1.0), n=100,
                                           delta=2.0, trials=500,
                                           ref_size=20_000, seed=0)
    elapsed = time.monotonic() - t0
    fraction = float((observed > bound).mean())
    assert fraction <= TOLERATED_FRACTION, \
        f"violation fraction {fraction:.4f} > {TOLERATED_FRACTION:.4f}"
    assert elapsed < 120.0, f"concentration harness took {elapsed:.0f} s"


# ---------------------------------------------------------------------------
# 6. Hausdorff distance of the estimate under the rate-linked schedule.
#
# lambda_n follows the convergence rate at the smoothness s and decay b that
# the Abel kernel has on the circle, and tau_n is the approximation bound at
# lambda_n.  The median grid-Hausdorff distance between the estimated set
# and the true circle must shrink with n, reaching half its n=50 value by
# n=400.


def test_hausdorff_distance_shrinks_under_rate_schedule():
    """Consistency of {F_n >= 1 - tau_n} on the circle under Abel(1).

    On the uniform unit circle a unit-diagonal kernel is rotation
    invariant, so the population Tikhonov score misses 1 by the same amount
    at every support point: 1 - F_lam(x) = lam * N(lam), with N the
    effective dimension.  The Fourier eigenvalues of Abel(1) satisfy
    s_k * pi * k^2 -> 1, so N(lam) grows like sqrt(pi / lam) (decay
    b = 1/2) and lam * N(lam) rises towards sqrt(pi * lam) from below (it
    stays under it for every lam in [1e-8, 1]): the approximation bound
    with s = 1/2 and C_s = sqrt(pi).  The schedule is therefore
    rate_lambda(n, s=1/2, b=1/2) = n^(-2/5), not the s = b = 1 defaults.
    lam * N(lam) also stays above 1.19 * sqrt(lam) for every lam <= 0.376,
    so a margin c * sqrt(lam_n) with c < 1.19 leaves the estimate empty at
    every n, however large.

    The margin is tau_n = approximation_error_bound(lam_n, 1/2, sqrt(pi))
    = sqrt(pi * lam_n), which covers the population gap on the support.
    It equals finite_sample_bound(n, delta, 1/2, 1/2, sqrt(pi), D_b=1) for
    every delta <= pi/8, where the bound's constant is C_s; no such delta
    carries a useful confidence, so the sampling error F_n - F_lam is not
    covered and the emptiness assertion checks that it does not push the
    whole grid below 1 - tau_n.

    Off the support, F_n(x) <= ||P_n K_x||^2 <= ||P_C K_x||^2 for any sample
    on the circle C, where P_n and P_C project onto the spans of the
    sampled and of all K_y, y in C.  So the estimate lies in the band
    {x : dist(K_x, span K_C)^2 <= tau_n}, which closes on C as tau_n -> 0
    because Abel separates C.  That gives consistency, not a rate: the
    factor one half is this test's demand, not a derived bound.
    """
    task = get_task("circle")
    truth = reference_support(task, 2000)
    grid_pts, _, _ = reference_grid(task, 96)
    kernel = Abel(1.0)
    s_smooth, b_decay, c_s = 0.5, 0.5, math.sqrt(math.pi)
    medians = {}
    score_tops = {}
    margins = {}
    for n in (50, 100, 200, 400):
        lam = rate_lambda(n, s=s_smooth, b=b_decay)
        tau = approximation_error_bound(lam, s_smooth, c_s)
        margins[n] = tau
        vals, tops = [], []
        for s in range(10):
            model = fit(sample(task, n, [s, n]), kernel, Tikhonov(lam), tau=tau)
            scores = score_batch(model, grid_pts)
            est = grid_pts[member_mask(scores, tau)]
            tops.append(float(scores.max()))
            vals.append(hausdorff(est, truth) if est.shape[0] else np.inf)
        medians[n] = float(np.median(vals))
        score_tops[n] = float(np.median(tops))
    detail = "; ".join(
        f"n={n}: median d_H {medians[n]:.4f}, median top score "
        f"{score_tops[n]:.4f} vs threshold {1.0 - margins[n]:.4f}"
        for n in (50, 100, 200, 400))
    assert all(np.isfinite(m) for m in medians.values()), \
        f"estimate came out empty under the schedule ({detail})"
    assert (medians[50] >= medians[100] >= medians[200] >= medians[400]), \
        f"median d_H not nonincreasing ({detail})"
    assert medians[400] <= 0.5 * medians[50], \
        f"median d_H at n=400 above half the n=50 value ({detail})"


# ---------------------------------------------------------------------------
# 7. Benchmark quality: two moons at desk scale, MNIST when supplied.


def test_two_moons_auc_beats_baseline():
    upper, lower = get_task("moon_upper"), get_task("moon_lower")
    n = 300
    auc_spectral, auc_parzen = [], []
    for s in range(10):
        train = sample(upper, n, [s, 0])
        pos = sample(upper, n, [s, 1])
        neg = sample(lower, n, [s, 2])
        sigma = width_heuristic(train)
        lam = lambda_curvature(decompose(gram(Abel(sigma), train)).eigenvalues)
        model = fit(train, Abel(sigma), Tikhonov(lam), algorithm="spectral")
        X = np.vstack([pos, neg])
        labels = np.r_[np.ones(len(pos), bool), np.zeros(len(neg), bool)]
        _, auc = roc_auc(score_batch(model, X), labels)
        _, auc_p = roc_auc(parzen_score(train, sigma, X), labels)
        auc_spectral.append(auc)
        auc_parzen.append(auc_p)
    med_s = float(np.median(auc_spectral))
    med_p = float(np.median(auc_parzen))
    assert med_s >= 0.95, f"median spectral AUC {med_s:.4f} < 0.95"
    assert med_s >= med_p, f"spectral {med_s:.4f} below Parzen {med_p:.4f}"


# Tasks whose support is a curve, where every filter family beats Parzen outright.
PARZEN_BEATEN = ("circle", "two_circles", "two_moons")


def test_every_filter_family_matches_parzen_on_every_task():
    """The paper's claim, held per filter family: at n = 300 over 5 trials,
    with positives drawn from the task and negatives uniform on its bounding
    box (as ``eval --task`` draws them), Tikhonov, the cutoff, Landweber at
    m = round(1/lambda) and kPCA, all at lambda from ``lambda_curvature`` and
    sharing one decomposition per trial, reach a median AUC within 0.01 of
    Parzen at the kernel's width on every task, and 0.02 above it on the
    tasks of ``PARZEN_BEATEN``."""
    n, failures = 300, []
    for name in task_names():
        task = get_task(name)
        aucs = {}
        for t in range(5):
            train = task.draw(n, np.random.default_rng([31, t, 0]))
            pos = task.draw(n, np.random.default_rng([31, t, 1]))
            rng = np.random.default_rng([31, t, 2])
            neg = np.column_stack([rng.uniform(lo, hi, n) for lo, hi in task.bounding_box])
            X = np.vstack([pos, neg])
            labels = np.r_[np.ones(n, bool), np.zeros(n, bool)]
            kernel = Abel(width_heuristic(train))
            D = decompose(gram(kernel, train))
            lam = lambda_curvature(D.eigenvalues)
            for f in (Tikhonov(lam), SpectralCutoff(lam), Landweber(round(1.0 / lam)),
                      KpcaTruncation(lam=lam)):
                model = fit(train, kernel, f, algorithm="spectral", eigenpairs=D)
                aucs.setdefault(f.name, []).append(roc_auc(score_batch(model, X), labels)[1])
            aucs.setdefault("parzen", []).append(
                roc_auc(parzen_score(train, kernel.sigma, X), labels)[1])
        median = {family: float(np.median(v)) for family, v in aucs.items()}
        floor = median.pop("parzen") + (0.02 if name in PARZEN_BEATEN else -0.01)
        failures += [f"{name}: {family} {auc:.4f} < {floor:.4f}"
                     for family, auc in median.items() if auc < floor]
    assert not failures, failures


@pytest.mark.skipif("SETLEARN_MNIST" not in os.environ,
                    reason="set SETLEARN_MNIST to a directory with "
                           "mnist_train.csv and mnist_test.csv (see README)")
def test_mnist_auc_matches_reference():
    from setlearn.data import load_csv

    root = os.environ["SETLEARN_MNIST"]
    train_tab = load_csv(os.path.join(root, "mnist_train.csv"), header=True)
    test_tab = load_csv(os.path.join(root, "mnist_test.csv"), header=True)

    def split(ds):
        labels = ds.points[:, 0].astype(int)
        pixels = ds.points[:, 1:]
        if pixels.max() > 1.5:          # raw 0..255 bytes
            pixels = pixels / 255.0
        return labels, pixels

    train_labels, train_pix = split(train_tab)
    test_labels, test_pix = split(test_tab)
    pool = train_pix[train_labels == 3]
    assert pool.shape[0] >= 500, "need at least 500 training threes"
    pos = test_pix[test_labels == 3][:100]
    neg = test_pix[test_labels == 8][:100]
    assert len(pos) == 100 and len(neg) == 100, "need 100 test threes and eights"
    X = np.vstack([pos, neg])
    labels = np.r_[np.ones(100, bool), np.zeros(100, bool)]
    aucs = []
    for t in range(20):
        rng = np.random.default_rng([88, t])
        train = pool[rng.choice(pool.shape[0], 500, replace=False)]
        sigma = width_heuristic(train)
        lam = lambda_curvature(decompose(gram(Abel(sigma), train)).eigenvalues)
        model = fit(train, Abel(sigma), Tikhonov(lam), algorithm="spectral")
        _, auc = roc_auc(score_batch(model, X), labels)
        aucs.append(auc)
    mean_auc = float(np.mean(aucs))
    assert abs(mean_auc - 0.837) <= 0.05, \
        f"3-vs-8 mean AUC {mean_auc:.4f} outside 0.837 +/- 0.05"


# ---------------------------------------------------------------------------
# 8. Bound calculators against independent high-precision evaluation.


def _rel_err(value, reference):
    return abs(value - reference) / max(abs(reference), 1e-300)


def _mp(x):
    return mpmath.mpf(float(x))


def test_bound_calculators_match_high_precision():
    rng = np.random.default_rng(2718)
    with mpmath.workdps(40):
        for _ in range(100):
            n = int(10 ** rng.uniform(0, 6))
            delta = float(10.0 ** rng.uniform(-2, 1))
            lam = float(10.0 ** rng.uniform(-6, 0))
            s = float(rng.uniform(0.05, 1.0))
            b = float(rng.uniform(0.0, 1.0))
            c_s = float(10.0 ** rng.uniform(-1, 1))
            d_b = float(rng.uniform(1.0, 10.0))
            eigs = rng.uniform(0.0, 1.0, 30)
            effdim = float(rng.uniform(0.0, 50.0))
            m_bound = float(10.0 ** rng.uniform(-1, 1))
            variance = float(rng.uniform(0.01, 4.0))

            ref = (max(_mp(c_s), 2 * _mp(d_b) * max(_mp(delta),
                                                    mpmath.sqrt(2 * _mp(delta))))
                   * mpmath.power(n, -_mp(s) / (2 * _mp(s) + _mp(b) + 1)))
            assert _rel_err(finite_sample_bound(n, delta, s, b, c_s, d_b),
                            float(ref)) <= 1e-12

            ref = (_mp(delta) / (n * _mp(lam))
                   + mpmath.sqrt(2 * _mp(delta) * _mp(effdim) / (n * _mp(lam))))
            assert _rel_err(sample_error_bound(n, lam, delta, effdim),
                            float(ref)) <= 1e-12

            ref = _mp(c_s) * mpmath.power(_mp(lam), _mp(s))
            assert _rel_err(approximation_error_bound(lam, s, c_s),
                            float(ref)) <= 1e-12

            ref = mpmath.fsum(_mp(e) / (_mp(e) + _mp(lam))
                              for e in eigs if e > 0.0)
            assert _rel_err(effective_dimension(eigs, lam), float(ref)) <= 1e-12

            ref = (_mp(m_bound) * _mp(delta) / n
                   + mpmath.sqrt(2 * _mp(variance) * _mp(delta) / n))
            assert _rel_err(bernstein_bound(m_bound, variance, n, delta),
                            float(ref)) <= 1e-12


# ---------------------------------------------------------------------------
# 9. Determinism of the command line and persistence round-trips.


def _run_cli_suite(out_dir):
    pts = os.path.join(out_dir, "pts.csv")
    model_txt = os.path.join(out_dir, "model.txt")
    model_bin = os.path.join(out_dir, "model.bin")
    produced = [pts, os.path.join(out_dir, "grid.csv"), model_txt,
                os.path.join(out_dir, "eigs.csv"), model_bin,
                os.path.join(out_dir, "scores.csv"),
                os.path.join(out_dir, "sweep.csv"),
                os.path.join(out_dir, "eval.csv"),
                os.path.join(out_dir, "bounds.csv")]
    commands = [
        ["synth", "--task", "circle", "--n", "60", "--seed", "5",
         "--resolution", "24", "--out", pts,
         "--grid-out", os.path.join(out_dir, "grid.csv"), "--no-timestamp"],
        ["train", "--data", pts, "--header", "--kernel", "abel",
         "--sigma", "1", "--filter", "tikhonov", "--lambda", "0.05",
         "--out", model_txt, "--eigs-out", os.path.join(out_dir, "eigs.csv"),
         "--no-timestamp"],
        ["train", "--data", pts, "--header", "--kernel", "abel",
         "--sigma", "1", "--filter", "tikhonov", "--lambda", "0.05",
         "--model-format", "binary", "--out", model_bin, "--no-timestamp"],
        ["score", "--model", model_txt, "--data", pts, "--header",
         "--out", os.path.join(out_dir, "scores.csv"), "--no-timestamp"],
        ["sweep", "--data", pts, "--header", "--kernel", "abel",
         "--sigma", "1", "--filter", "tikhonov", "--lambdas", "0.1,0.01",
         "--taus", "0,0.1", "--out", os.path.join(out_dir, "sweep.csv"),
         "--no-timestamp"],
        ["eval", "--task", "circle", "--n", "40", "--kernel", "abel",
         "--sigma", "1", "--filter", "tikhonov", "--lambda", "0.05",
         "--trials", "2", "--resolution", "24", "--seed", "3",
         "--out", os.path.join(out_dir, "eval.csv"), "--no-timestamp"],
        ["verify-bounds", "--harness", "bernstein", "--n", "200",
         "--delta", "2", "--trials", "50", "--seed", "1",
         "--out", os.path.join(out_dir, "bounds.csv"), "--no-timestamp"],
    ]
    for argv in commands:
        assert cli_main(argv) == 0, f"command failed: {' '.join(argv)}"
    return produced


def _read_all(paths):
    blobs = {}
    for path in paths:
        with open(path, "rb") as fh:
            blobs[os.path.basename(path)] = fh.read()
    return blobs


def test_identical_seeds_give_identical_bytes(tmp_path, capsys):
    # Rerun the same commands into the same paths: every output
    # (metadata included) must come back byte-for-byte identical.
    first = _read_all(_run_cli_suite(str(tmp_path)))
    second = _read_all(_run_cli_suite(str(tmp_path)))
    capsys.readouterr()
    for name, blob in first.items():
        assert second[name] == blob, f"rerun changed bytes of {name}"


def test_identical_seeds_give_identical_bytes_at_one_thread(tmp_path):
    # The same reruns, each in a fresh process with OpenBLAS on one thread.
    def run():
        one_thread(["-c", "import sys, test_acceptance as t; t._run_cli_suite(sys.argv[1])",
                    str(tmp_path)])
        return _read_all(str(p) for p in sorted(tmp_path.iterdir()))

    first, second = run(), run()
    assert sorted(first) == sorted(second)
    for name, blob in first.items():
        assert second[name] == blob, f"rerun changed bytes of {name}"


def test_model_round_trip_scores_drift_below_tolerance(tmp_path):
    rng = np.random.default_rng(31)
    pts = rng.uniform(-1.0, 1.0, (40, 3))
    probe = rng.uniform(-1.5, 1.5, (25, 3))
    model = fit(pts, Abel(0.8), Tikhonov(0.01), tau=0.05)
    reference = score_batch(model, probe)
    for fmt in ("text", "binary"):
        path = str(tmp_path / f"model.{fmt}")
        save_model(model, path, fmt=fmt)
        drift = float(np.max(np.abs(score_batch(load_model(path), probe)
                                    - reference)))
        assert drift <= 1e-12, f"{fmt} round-trip drift {drift:.3e}"
