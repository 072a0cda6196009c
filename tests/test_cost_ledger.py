"""The cost ledger: live memory and O(n^3) calls, one row per operation.

A row bounds an operation's peak traced allocation and, for a model scored
once, what stays allocated, in n^2 doubles ("n^2"); ``tracemalloc`` sees
numpy's buffers, not LAPACK's workspace, so a row reads the same on any
machine.  It counts exactly the calls the ``solves`` fixture counts: each
solve, factorization and Gram build.  A bound sits at most about 10%, and
under 1 n^2, above what its row measured when it was set, so one more n x n
array fails it.  A change that moves a cost states the move as a changed row.
"""

import dataclasses
import tracemalloc
from functools import partial

import numpy as np
import pytest

import setlearn.cli as cli
import setlearn.kernels as kernels
from setlearn import (Abel, Gaussian, KpcaTruncation, Landweber, SpectralCutoff, Tikhonov,
                      cross_gram, decompose, devroye_wise_member, fit, get_task, hausdorff,
                      load_model, parzen_score, reference_support, regularization_path,
                      save_model, score_batch)
from setlearn.estimator import SCORE_TILE

N = 400
K = Abel(1.0)
T = Tikhonov(1e-3)
TRAIN = ["train", "--task", "circle", "--n", str(N)]
# The command line's eigenvalues-only build: a Cholesky model under --lambda auto.
AUTO = cli._Config(kernel=K, auto_k=None, kernel_note="fixed", family=Tikhonov, filter=None,
                   filter_note="auto", algorithm="cholesky", tau=0.0)


def _model(P, f=T, algorithm="cholesky", kernel=K, state=None, **kwargs):
    """A model fitted to P, with its ``state`` ("decomposition" or "factor") built."""
    model = fit(P, kernel, f, algorithm=algorithm, **kwargs)
    if state:
        getattr(model, state)
    return model


def _first_score(f=T, algorithm="cholesky", kernel=K, source="fit"):
    """Fit, or load from a binary file with its decomposition, then score once."""
    def prepare(P, Y, d):
        if source == "binary":
            save_model(_model(P, f, algorithm, kernel), d / "m", fmt="binary",
                       include_decomposition=True)
        pairs = _model(P, f, "spectral", kernel).decomposition if source == "pairs" else None
        def call():
            model = (load_model(d / "m") if source == "binary"
                     else _model(P, f, algorithm, kernel, eigenpairs=pairs))
            score_batch(model, Y[:30])
            return model
        return call
    return prepare


def _model_file(fmt, load):
    """The load, or the save, of a model's file with its decomposition."""
    def prepare(P, Y, d):
        model = _model(P, state="decomposition")
        save = partial(save_model, model, d / "m", fmt=fmt, include_decomposition=True)
        if load:
            save()
            return lambda: (model, load_model(d / "m"))
        return lambda: (model, save() or partial(load_model, d / "m"))
    return prepare


def _same_eigenvectors(pair):
    """The file loads the model's eigenvectors into one aligned array."""
    model, loaded = pair
    V = (loaded() if callable(loaded) else loaded).decomposition.eigenvectors
    assert V.flags.aligned and V.flags.c_contiguous
    assert np.array_equal(V, model.decomposition.eigenvectors)


def _main(argv, d, rc=0):
    assert cli.main(argv + ["--out", str(d / "out"), "--no-timestamp"]) == rc


def _cli(*argv, rc=0):
    return lambda P, Y, d: partial(_main, [*argv], d, rc)


def _cli_score(P, Y, d):
    """``score`` on n queries of a binary Cholesky model saved with its decomposition."""
    model, data = d / "m.bin", d / "x.csv"
    _main(TRAIN + ["--store-decomposition", "--model-format", "binary",
                   "--eigs-out", str(d / "e.csv")], d)
    (d / "out").rename(model)
    np.savetxt(data, Y, delimiter=",")
    return partial(_main, ["score", "--model", str(model), "--data", str(data)], d)


def _cli_eval_model(P, Y, d):
    """``eval --model`` on a text Cholesky model and 1,000 labelled queries."""
    model, data = d / "m.txt", d / "x.csv"
    _main(TRAIN, d)
    (d / "out").rename(model)
    Q = np.random.default_rng(1).uniform(-1.2, 1.2, (1000, 2))
    np.savetxt(data, np.column_stack([Q, np.abs(np.hypot(*Q.T) - 1.0) < 0.2]), delimiter=",")
    return partial(_main, ["eval", "--model", str(model), "--data", str(data),
                           "--label-col", "2"], d)


def _row(name, prepare, peak, held=None, check=None, n=N, **counts):
    return pytest.param(prepare, n, peak, held, check, counts, id=name)


ROWS = [
    # kernel blocks: the one n x n array cdist returns, plus cross_gram's n^2 / 8 mask
    _row("pairwise", lambda P, Y, d: partial(K._pairwise, P, Y), 1.1),
    _row("cross_gram", lambda P, Y, d: partial(cross_gram, K, P, Y), 1.24),
    *(_row(f"gram-{n}", lambda P, Y, d: partial(kernels.gram, Abel(0.5), P), 1.15, n=n,
           gram=1) for n in (200, 400, 600)),
    # query-by-set blocks, in row blocks of at most 2^16 entries
    _row("parzen_score", lambda P, Y, d: partial(parzen_score, P, K.sigma, Y), 0.45),
    _row("devroye_wise_member", lambda P, Y, d: partial(devroye_wise_member, P, 0.1, Y), 0.45),
    # the grid's members against eval --task's 2,000-point reference support
    _row("hausdorff", lambda P, Y, d: partial(
        hausdorff, P, reference_support(get_task("circle"), 2000)), 0.48),
    # the solves work in place on one n^2 buffer, plus LAPACK's: a copy of the
    # caller's Gram for the public ones, the library's own fresh Gram for the rest
    _row("decompose", lambda P, Y, d: partial(decompose, kernels.gram(K, P)), 3.25, eigh=1),
    _row("decomposition", lambda P, Y, d: lambda: _model(P, algorithm="spectral").decomposition,
         3.1, eigh=1, gram=1),
    _row("cli-eigenvalues", lambda P, Y, d: partial(cli._build_model, P, AUTO), 1.2,
         eigvalsh=1, gram=1),
    # the spectral factor, one QR in place on V diag(sqrt(g/n)), once V is solved;
    # Landweber's under its old path name, which reads as spectral
    *(_row(f"factor-{name}", lambda P, Y, d, f=f, a=name: partial(
        getattr, _model(P, f, a, state="decomposition"), "factor"), 1.19, dgeqrf=1)
      for name, f in [("spectral", T), ("landweber", Landweber(20))]),
    # fit or load, then a first score: a factor model keeps its factor alone
    *(_row(f"first-score-cholesky{name}", _first_score(source=source), peak, 1.1, cho_factor=1,
           dtrtri=1, gram=grams)
      for name, source, peak, grams in [("", "fit", 1.24, 1), ("-eigenpairs", "pairs", 1.24, 1),
                                        ("-loaded", "binary", 2.35, 2)]),
    *(_row(f"first-score-{name}", _first_score(f, "spectral"), 3.1, 1.1, eigh=1, dgeqrf=1,
           gram=1)
      for name, f in [("spectral", T), ("landweber", Landweber(20)),
                      ("cutoff", SpectralCutoff(1e-2))]),
    # a zero gain (kPCA) or a spread past the gate scores through V and keeps it
    *(_row(f"first-score-{name}", _first_score(f, "spectral", kernel), 3.1, 1.1, eigh=1, gram=1)
      for name, f, kernel in [("kpca", KpcaTruncation(lam=1e-2), K),
                              ("gated", Tikhonov(1e-12), Gaussian(2.0))]),
    # warm batches of 256 queries, the factor built (or, for kPCA, V solved)
    *(_row(f"warm-{name}", lambda P, Y, d, f=f, a=a: partial(
        score_batch, _model(P, f, a, state="factor"), Y[:256]), peak)
      for name, f, a, peak in [("cholesky", T, "cholesky", 0.79),
                               ("spectral", T, "spectral", 0.79),
                               ("kpca", KpcaTruncation(lam=1e-2), "spectral", 1.4)]),
    # warm batches of 20 score tiles and one query (the draws repeated): one tile alive
    *(_row(f"warm-many-{name}", lambda P, Y, d, f=f, a=a: partial(
        score_batch, _model(P, f, a, state="factor"), np.resize(Y, (20 * SCORE_TILE + 1, 2))),
           peak)
      for name, f, a, peak in [("cholesky", T, "cholesky", 0.83),
                               ("kpca", KpcaTruncation(lam=1e-2), "spectral", 1.45)]),
    _row("regularization_path", lambda P, Y, d: partial(
        regularization_path, _model(P), Y[:256], np.geomspace(1e-4, 1e-1, 12)), 3.3,
         eigh=1, gram=1),
    # model files with a decomposition: a load checks it against a Gram of its own
    _row("load-binary", _model_file("binary", load=True), 2.3, check=_same_eigenvectors,
         gram=1),
    _row("save-binary", _model_file("binary", load=False), 0.015, check=_same_eigenvectors),
    _row("load-text", _model_file("text", load=True), 11.8, gram=1),
    _row("save-text", _model_file("text", load=False), 3.4),
    # whole commands: at most one spectral solve per model build, eigenvalues
    # only for a Cholesky model, and each score's factor from a Gram of its own
    _row("cli-train", _cli(*TRAIN), 1.3, eigvalsh=1, gram=1),
    _row("cli-train-cholesky-fixed", _cli(*TRAIN, "--algorithm", "cholesky", "--lambda", "0.01"),
         1.25, eigvalsh=1, gram=1),
    # the text save of V after the solve, which still holds it
    _row("cli-train-store-decomposition", _cli(*TRAIN, "--store-decomposition"), 4.8, eigh=1,
         gram=1),
    *(_row(f"cli-train-{name}", _cli(*TRAIN, *flags), 3.3, eigh=1, gram=1)
      for name, flags in [("spectral", ["--algorithm", "spectral"]),
                          ("cutoff", ["--filter", "cutoff"]),
                          ("kpca-components", ["--filter", "kpca", "--components", "3"]),
                          ("landweber", ["--filter", "landweber", "--m", "5"])]),
    # a score path that the filter cannot take is refused before any Gram
    *(_row(f"cli-refused-{name}", _cli(*TRAIN, *flags, "--algorithm", "cholesky", rc=2), 0.025)
      for name, flags in [("cutoff", ["--filter", "cutoff", "--lambda", "1e-3"]),
                          ("landweber", ["--filter", "landweber", "--m", "5"])]),
    _row("cli-score", _cli_score, 2.35, cho_factor=1, dtrtri=1, gram=2),
    _row("cli-sweep", _cli("sweep", *TRAIN[1:], "--lambdas", "1e-3,1e-2"), 3.3, eigh=1, gram=1),
    _row("cli-eval-task", _cli("eval", *TRAIN[1:], "--trials", "2", "--resolution", "16"), 2.4,
         eigvalsh=2, cho_factor=2, dtrtri=2, gram=4),
    # the default --resolution 64: a 4096-point grid, sixteen tiles
    _row("cli-eval-task-grid", _cli("eval", *TRAIN[1:], "--trials", "1"), 2.05,
         eigvalsh=1, cho_factor=1, dtrtri=1, gram=2),
    _row("cli-eval-model", _cli_eval_model, 1.95, cho_factor=1, dtrtri=1, gram=1),
    _row("cli-eval-task-fixed", _cli("eval", *TRAIN[1:], "--trials", "2", "--resolution", "16",
                                     "--lambda", "1e-3"), 1.98, cho_factor=2, dtrtri=2, gram=2),
]


@pytest.mark.parametrize("prepare, n, peak, held, check, counts", ROWS)
def test_cost_ledger(tmp_path, solves, prepare, n, peak, held, check, counts):
    rng = np.random.default_rng(n)
    call = prepare(rng.uniform(-1.0, 1.0, (n, 2)), rng.uniform(-1.2, 1.2, (n, 2)), tmp_path)
    calls = solves()
    tracemalloc.start()
    try:
        result = call()
        live, top = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert {name: count for name, count in calls.items() if count} == counts
    assert top / (8.0 * n * n) <= peak
    if held is not None:   # a scored model holds its factor alone, or V and no factor
        assert live / (8.0 * n * n) <= held
        extra = set(vars(result)) - {field.name for field in dataclasses.fields(result)}
        assert extra == ({"factor"} if result.factor is not None else {"decomposition", "factor"})
    if check is not None:
        check(result)
