"""Every public number, count and array argument is refused with the package's
own errors (:mod:`setlearn.errors`): a non-number, a bool, a non-integral count,
a kernel that is not a spec or an array that does not hold real numbers raises
``UsageError`` or ``DataError``, never numpy's or Python's ``TypeError``,
``ValueError`` or ``AttributeError``, and is never truncated or taken silently."""

import inspect
import os
from dataclasses import fields

import numpy as np
import pytest

import setlearn
from setlearn import oracles
from setlearn import (Abel, DataError, Gaussian, KpcaTruncation, L1Exponential, Landweber,
                      Normalized, NumericError, Product, SpectralCutoff, SpectralDecomposition,
                      Tikhonov, UsageError, cross_gram, devroye_wise_member, fit, fmt_value,
                      format_filter, format_kernel, gram, hausdorff, kernel_eval,
                      kpca_lambda_from_rank, lambda_curvature, load_csv, load_model,
                      member_mask, metric_matrix, normalize, parse_filter,
                      parse_kernel, parzen_score, predict_member, product_kernel, rate_lambda,
                      reference_grid, reference_support, regularization_path, sample,
                      save_model, score, score_batch, support_distance, symdiff_measure,
                      width_heuristic, write_table)
from setlearn.filters import _FILTERS
from setlearn.kernels import _KERNELS
from setlearn.oracles import bernstein_trials, concentration_trials, hs_distance, hs_norm
from setlearn.synth import get_task

X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.2]])
MODEL = fit(X, Abel(1.0), Tikhonov(0.1))
SPECTRUM = MODEL.decomposition.eigenvalues
CIRCLE = get_task("circle")

NOT_NUMBERS = ("abc", None, 1j, True, np.array([1.0, 2.0]))
NOT_COUNTS = NOT_NUMBERS + (2.5, "2")
NOT_SIZES = ("abc", None, 1j, np.array([3, 4]), 2.5, "3")   # True < 2 was refused already
NOT_POINTS = ("abc", [[1.0, "x"]], [[1j, 2.0]], [[1.0], [1.0, 2.0]])
NOT_INDICATORS = ("abc", None, [[True, "x"]], [[1.0], [1.0, 2.0]])
NOT_SEEDS = ("abc", 1.5, -1, True, 1j)
NOT_SPECS = (3, None, b"abel sigma=1", ["abel"])
# open() takes an integer, a bool too, as a file descriptor: 2**30 is never an open one.
NOT_PATHS = (None, 1.5, True, 2 ** 30)
NOT_TASKS = (None, "circle", 7)

# (argument, call taking the bad value, bad values, the error it raises)
ARGUMENTS = [
    ("Tikhonov", Tikhonov, NOT_NUMBERS, UsageError),
    ("SpectralCutoff", SpectralCutoff, NOT_NUMBERS, UsageError),
    ("KpcaTruncation-lam", lambda v: KpcaTruncation(lam=v), ("abc", 1j, True), UsageError),
    ("Abel", Abel, NOT_NUMBERS, UsageError),
    ("L1Exponential", L1Exponential, NOT_NUMBERS, UsageError),
    ("Gaussian", Gaussian, NOT_NUMBERS, UsageError),
    ("rate_lambda-n", rate_lambda, NOT_NUMBERS, UsageError),
    ("rate_lambda-s", lambda v: rate_lambda(100, s=v), NOT_NUMBERS, UsageError),
    ("rate_lambda-b", lambda v: rate_lambda(100, b=v), NOT_NUMBERS, UsageError),
    ("width_heuristic-k", lambda v: width_heuristic(X, v), NOT_COUNTS, UsageError),
    ("width_heuristic-points", width_heuristic, NOT_POINTS, DataError),
    ("parzen_score-h", lambda v: parzen_score(X, v, X), NOT_NUMBERS, UsageError),
    ("parzen_score-x", lambda v: parzen_score(X, 0.5, v), NOT_POINTS, DataError),
    ("parzen_score-train", lambda v: parzen_score(v, 0.5, X), NOT_POINTS, DataError),
    ("devroye_wise_member-eps", lambda v: devroye_wise_member(X, v, X), NOT_NUMBERS,
     UsageError),
    ("devroye_wise_member-x", lambda v: devroye_wise_member(X, 0.5, v), NOT_POINTS,
     DataError),
    ("symdiff_measure-cell_volume", lambda v: symdiff_measure([True], [False], v),
     NOT_NUMBERS, UsageError),
    ("symdiff_measure-inside", lambda v: symdiff_measure(v, v, 1.0), NOT_INDICATORS,
     DataError),
    ("sample-n", lambda v: sample(CIRCLE, v, 0), NOT_COUNTS, UsageError),
    ("reference_grid-resolution", lambda v: reference_grid(CIRCLE, v), NOT_SIZES,
     UsageError),
    ("reference_support-m", lambda v: reference_support(CIRCLE, v), NOT_SIZES, UsageError),
    ("gram-points", lambda v: gram(Abel(1.0), v), NOT_POINTS, DataError),
    ("fit-points", lambda v: fit(v, Abel(1.0), Tikhonov(0.1)), NOT_POINTS, DataError),
    ("score_batch-X", lambda v: score_batch(MODEL, v), NOT_POINTS, DataError),
    ("score-x", lambda v: score(MODEL, v), NOT_POINTS, DataError),
    ("predict_member-x", lambda v: predict_member(MODEL, v), NOT_POINTS, DataError),
    ("regularization_path-X", lambda v: regularization_path(MODEL, v, [0.1]), NOT_POINTS,
     DataError),
    ("regularization_path-grid", lambda v: regularization_path(MODEL, X, v),
     ("abc", None, 1j, True), UsageError),
    ("regularization_path-strength", lambda v: regularization_path(MODEL, X, [v]),
     NOT_NUMBERS, UsageError),
    # bytes are a sequence of small integers, and a set or mapping has no order the
    # caller chose, so none of them is taken as strengths
    ("regularization_path-unordered", lambda v: regularization_path(MODEL, X, v),
     (b"\x01", b"abc", bytearray(b"\x01"), {0.1, 0.2}, frozenset({0.1}), {0.1: 0.2},
      {0.1: 0.2}.keys()), UsageError),
    ("member_mask-scores", lambda v: member_mask(v, 0.1),
     ("abc", None, 1j, [0.5, "x"], [0.5, np.nan], [0.5, np.inf]), DataError),
    ("kpca_lambda_from_rank-components", lambda v: kpca_lambda_from_rank(SPECTRUM, v),
     NOT_COUNTS, UsageError),
    ("kpca_lambda_from_rank-spectrum", lambda v: kpca_lambda_from_rank(v, 2),
     ("abc", None, [0.5, "x"]), UsageError),
    *((f"{name}-kernel", call, ("abel", None, Tikhonov(0.1)), UsageError) for name, call in (
        ("gram", lambda k: gram(k, X)), ("cross_gram", lambda k: cross_gram(k, X, X)),
        ("metric_matrix", lambda k: metric_matrix(k, X)),
        ("kernel_eval", lambda k: kernel_eval(k, X[0], X[1])), ("normalize", normalize),
        ("Normalized", lambda k: gram(Normalized(k), X)),
        ("hs_norm", lambda k: hs_norm(k, X)),
        ("hs_distance", lambda k: hs_distance(k, X, X[:2])))),
    ("hausdorff-kernel", lambda k: hausdorff(X, X, kernel=k), ("abel", Tikhonov(0.1)),
     UsageError),
    ("product_kernel-factors", product_kernel,
     (3, [Abel(1.0)], [(Abel(1.0), 2)], [(Abel(1.0), (0, 1, 2))]), UsageError),
    ("product_kernel-slice", lambda v: product_kernel([(Abel(1.0), (v, 2))]),
     ("a", None, 0.5), UsageError),
    ("fit-eigenpairs", lambda v: fit(X, Abel(1.0), Tikhonov(0.1), eigenpairs=v),
     ("x", (SPECTRUM, np.eye(5))), UsageError),
    # built directly, a product checks its factors as product_kernel does
    ("Product-factors", Product,
     (3, "abc", ((Abel(1.0), (0, 2)), (Abel(1.0), (1, 3))),   # overlap at 1
      ((Abel(1.0), (0, 1)), (Abel(1.0), (2, 3))),             # gap at 1
      ((Abel(1.0), (1, 3)),), ((Abel(1.0), (1, 0)),), (("abel", (0, 1)),)), UsageError),
    ("SpectralDecomposition", lambda v: SpectralDecomposition(*v),
     (("abc", None), (np.ones(3), np.eye(2))), UsageError),
    ("load_csv-path", load_csv, NOT_PATHS, UsageError),
    ("load_model-path", load_model, NOT_PATHS, UsageError),
    ("save_model-path", lambda v: save_model(MODEL, v), NOT_PATHS, UsageError),
    ("write_table-path", lambda v: write_table(v, "t", [], ["x"], [(1,)]), NOT_PATHS,
     UsageError),
    # a string row is a sequence of one-character cells, never written as such
    ("write_table-rows", lambda v: write_table(os.devnull, "t", [], ["x"], v),
     ("abc", [b"a"], [(1,), "a"]), UsageError),
    # so is a string of metadata, column names or footer lines
    ("write_table-meta", lambda v: write_table(os.devnull, "t", v, ["x"], [(1,)]),
     ("ab", b"ab"), UsageError),
    ("write_table-columns", lambda v: write_table(os.devnull, "t", [], v, [(1, 2)]),
     ("xy", b"xy"), UsageError),
    ("write_table-footer", lambda v: write_table(os.devnull, "t", [], ["x"], [(1,)], footer=v),
     ("zz", b"zz"), UsageError),
    # a title, meta entry, column name or footer entry is one line of text
    ("write_table-title", lambda v: write_table(os.devnull, v, [], ["x"], [(1,)]),
     (None, 7, b"t", "a\nb", "a\rb"), UsageError),
    ("write_table-meta-line", lambda v: write_table(os.devnull, "t", v, ["x"], [(1,)]),
     (["a\nb"], ["k=v", "a\r"], [1], [None]), UsageError),
    ("write_table-columns-line", lambda v: write_table(os.devnull, "t", [], v, [(1,)]),
     (["a\nb"], ["x\r"]), UsageError),
    ("write_table-footer-line",
     lambda v: write_table(os.devnull, "t", [], ["x"], [(1,)], footer=v),
     (np.zeros((2, 2, 2)), [1, "y"], ["a\nb"], [b"y"]), UsageError),
    ("parse_kernel", parse_kernel, NOT_SPECS, UsageError),
    ("parse_filter", parse_filter, NOT_SPECS, UsageError),
    ("sample-seed", lambda v: sample(CIRCLE, 3, v),
     NOT_SEEDS + ([1, -1], [1, "a"], (2, True), [[1, 2]], np.array([1.5])), UsageError),
    ("bernstein_trials-seed", lambda v: bernstein_trials(10, 1.0, 2, v),
     NOT_SEEDS + (None, [1, 2]), UsageError),
    ("concentration_trials-seed",
     lambda v: concentration_trials(CIRCLE.draw, Abel(1.0), 5, 1.0, 2, 5, v),
     NOT_SEEDS + (None, [1, 2]), UsageError),
    ("concentration_trials-sampler",
     lambda v: concentration_trials(v, Abel(1.0), 5, 1.0, 2, 5, 0), (None, CIRCLE), UsageError),
    ("concentration_trials-kernel",
     lambda v: concentration_trials(CIRCLE.draw, v, 5, 1.0, 2, 5, 0), NOT_TASKS, UsageError),
    ("get_task", get_task, ([1, "x"], None, 7, b"circle"), UsageError),
    *((f"{name}-task", call, NOT_TASKS, UsageError) for name, call in (
        ("sample", lambda t: sample(t, 5, 0)), ("reference_support", reference_support),
        ("support_distance", lambda t: support_distance(t, X)),
        ("reference_grid", lambda t: reference_grid(t, 4)))),
    # a harness passes its own numpy.random.Generator, never a seed or a RandomState
    *((f"draw-{name}-rng", lambda v, name=name: get_task(name).draw(3, v),
       (None, 0, np.random.RandomState(0)), UsageError) for name in ("circle", "two_moons")),
    *((f"{name}-model", call, (None, X, Abel(1.0)), UsageError) for name, call in (
        ("score", lambda m: score(m, X[0])), ("score_batch", lambda m: score_batch(m, X)),
        ("predict_member", lambda m: predict_member(m, X)),
        ("regularization_path", lambda m: regularization_path(m, X, [0.1])),
        ("save_model", lambda m: save_model(m, os.devnull)))),
    ("lambda_curvature", lambda_curvature, (7, np.zeros((2, 3))), UsageError),
    *((f"write_table-{name}-not-iterable", call, values, UsageError)
      for name, call, values in (
          ("meta", lambda v: write_table(os.devnull, "t", v, ["x"], [(1,)]), (None, 7)),
          ("columns", lambda v: write_table(os.devnull, "t", [], v, [(1,)]),
           (None, 7, [1, "x"])),
          ("rows", lambda v: write_table(os.devnull, "t", [], ["x"], v), (None, 7)))),
    ("fmt_value", fmt_value, (None, [1, "x"], np.zeros(2), b"x", object()), UsageError),
    # a flag is a bool: an array's truth is ambiguous, and any nonempty string is true
    *((f"{name}-flag", call, ("abc", 1, None, np.zeros((0, 2)), np.zeros((2, 2, 2))),
       UsageError) for name, call in (
        ("load_csv-header", lambda v: load_csv(os.devnull, header=v)),
        ("write_table-timestamp",
         lambda v: write_table(os.devnull, "t", [], ["x"], [(1,)], timestamp=v)),
        ("save_model-include_decomposition",
         lambda v: save_model(MODEL, os.devnull, include_decomposition=v)),
        ("format_kernel-prefix", lambda v: format_kernel(Abel(1.0), prefix=v)),
        ("format_filter-prefix", lambda v: format_filter(Tikhonov(0.1), prefix=v)))),
    ("save_model-fmt", lambda v: save_model(MODEL, os.devnull, fmt=v),
     (np.zeros((0, 2)), np.zeros((2, 2, 2))), UsageError),
    ("fit-algorithm", lambda v: fit(X, Abel(1.0), Tikhonov(0.1), algorithm=v),
     (np.zeros((0, 2)), np.zeros((2, 2, 2))), UsageError),
]


@pytest.mark.parametrize("call, bad, error", [
    pytest.param(call, bad, error, id=f"{name}-{i}")
    for name, call, values, error in ARGUMENTS for i, bad in enumerate(values)])
def test_a_bad_argument_is_refused_with_a_package_error(call, bad, error):
    with pytest.raises((UsageError, DataError, NumericError)) as caught:
        call(bad)
    assert type(caught.value) is error


def test_numbers_of_every_kind_stay_accepted():
    """Python and numpy integers and floats stay numbers, and integer counts stay
    counts; bool, integer and float arrays stay points."""
    assert Tikhonov(np.float32(0.5)).lam == 0.5 and Abel(1).sigma == 1.0
    assert Landweber(np.int64(3)).iterations == 3
    assert sample(CIRCLE, np.int64(3), 0).shape == (3, 2)
    assert reference_support(CIRCLE, np.int64(4)).shape == (4, 2)
    assert width_heuristic(X, np.int64(1)) == width_heuristic(X, 1)
    for points in (X.astype(int), X.astype(bool), X.astype(np.float32)):
        np.testing.assert_array_equal(fit(points, Abel(1.0), Tikhonov(0.1)).points,
                                      np.asarray(points, dtype=float))
    assert member_mask([True, False], 0.1).tolist() == [True, False]


@pytest.mark.parametrize("family", [
    pytest.param(f, id=f.name) for f in (*_KERNELS.values(), *_FILTERS.values())])
def test_every_family_checks_its_own_fields(family):
    """A kernel or filter family built directly refuses a garbage value in each
    of its fields, as its text form and factory do."""
    for field in fields(family):
        with pytest.raises(UsageError):
            family(**{field.name: "abc"})


def test_product_sorts_its_factors():
    """Factors in any order give the product of the sorted factors, over all
    the coordinates they tile."""
    a, b = (Abel(1.0), (1, 3)), (Gaussian(2.0), slice(0, 1))
    p = Product((a, b))
    assert p == Product(((Gaussian(2.0), (0, 1)), a)) == product_kernel([b, a])
    assert p.dim == 3 and gram(p, np.eye(3)).shape == (3, 3)


def test_grids_and_flags_of_every_kind_stay_accepted(tmp_path):
    """A regularization grid may be a list, tuple, range or 1-d array, and a
    flag a Python or numpy bool."""
    path = regularization_path(MODEL, X, [0.1, 0.2])
    for grid in ((0.1, 0.2), np.array([0.1, 0.2])):
        assert np.array_equal(regularization_path(MODEL, X, grid), path)
    landweber = fit(X, Abel(1.0), Landweber(3))
    assert np.array_equal(regularization_path(landweber, X, range(1, 3)),
                          regularization_path(landweber, X, [1, 2]))
    assert format_kernel(Abel(1.0), prefix=np.True_) == format_kernel(Abel(1.0))
    np.savetxt(tmp_path / "x.csv", X, delimiter=",", header="a,b", comments="")
    assert load_csv(tmp_path / "x.csv", header=np.bool_(True)).n == len(X)


def test_seeds_of_every_kind_stay_accepted():
    """A sample takes None, an integer or a sequence of integers as a seed; a
    harness takes an integer, a numpy one too."""
    assert sample(CIRCLE, 3, None).shape == (3, 2)
    np.testing.assert_array_equal(sample(CIRCLE, 3, np.int64(4)), sample(CIRCLE, 3, 4))
    for seed in ([4, 3], (4, 3), np.array([4, 3])):
        np.testing.assert_array_equal(sample(CIRCLE, 3, seed), sample(CIRCLE, 3, [4, 3]))
    observed, _ = bernstein_trials(10, 1.0, 2, np.int64(3))
    np.testing.assert_array_equal(observed, bernstein_trials(10, 1.0, 2, 3)[0])


def test_save_model_refuses_a_bad_path_before_it_solves():
    """A path that is not one is refused before the decomposition it would
    store is solved."""
    model = fit(X, Abel(1.0), Tikhonov(0.1), algorithm="spectral")
    with pytest.raises(UsageError, match="file path"):
        save_model(model, None, include_decomposition=True)
    assert "decomposition" not in vars(model)


# One valid call of each public callable: its positional arguments.
VALID_CALLS = {
    "Abel": (1.0,), "Gaussian": (1.0,), "L1Exponential": (1.0,), "Linear": (),
    "Kernel": (), "Normalized": (Abel(1.0),), "Product": (((Abel(1.0), (0, 2)),),),
    "product_kernel": (((Abel(1.0), (0, 2)),),),
    "Filter": (), "Tikhonov": (0.1,), "SpectralCutoff": (0.1,), "KpcaTruncation": (0.1,),
    "Landweber": (3,),
    "SpectralDecomposition": (SPECTRUM, MODEL.decomposition.eigenvectors),
    "Dataset": (X, None, "points.csv"), "SyntheticTask": (
        "circle", 2, CIRCLE.bounding_box, True, CIRCLE._sampler, CIRCLE._support,
        CIRCLE._distance),
    "DataError": ("a",), "NumericError": ("a",), "UsageError": ("a",),
    "approximation_error_bound": (0.1, 0.5, 1.0), "bernstein_bound": (1.0, 1.0, 100, 2.0),
    "concentration_bound": (100, 2.0), "finite_sample_bound": (100, 2.0, 0.5, 0.5, 1.0, 1.0),
    "sample_error_bound": (100, 0.1, 2.0, 3.0), "effective_dimension": (MODEL.decomposition, 0.1),
    "hs_distance": (Abel(1.0), X, X[:2]), "hs_norm": (Abel(1.0), X),
    "concentration_trials": (CIRCLE.draw, Abel(1.0), 5, 1.0, 2, 5, 0),
    "bernstein_trials": (10, 1.0, 2, 0),
    "gram": (Abel(1.0), X), "cross_gram": (Abel(1.0), X, X), "metric_matrix": (Abel(1.0), X),
    "kernel_eval": (Abel(1.0), X[0], X[1]), "induced_metric": (Abel(1.0), X[0], X[1]),
    "normalize": (Abel(1.0),), "parse_kernel": ("abel sigma=1",),
    "format_kernel": (Abel(1.0),), "parse_filter": ("tikhonov lambda=0.1",),
    "format_filter": (Tikhonov(0.1),), "decompose": (gram(Abel(1.0), X),),
    "SupportModel": (X, Abel(1.0), Tikhonov(0.1)), "fit": (X, Abel(1.0), Tikhonov(0.1)),
    "score": (MODEL, X[0]), "score_batch": (MODEL, X), "predict_member": (MODEL, X),
    "member_mask": ([0.5, 1.0], 0.1), "regularization_path": (MODEL, X, [0.1]),
    "kpca_lambda_from_rank": (SPECTRUM, 2), "lambda_curvature": (SPECTRUM,),
    "rate_lambda": (100,), "width_heuristic": (X, 2),
    "hausdorff": (X, X), "devroye_wise_member": (X, 0.5, X), "parzen_score": (X, 0.5, X),
    "roc_auc": ([0.1, 0.9], [False, True]),
    "symdiff_measure": ([True, False], [True, True], 0.5),
    "task_names": (), "get_task": ("circle",), "sample": (CIRCLE, 5, 0),
    "reference_support": (CIRCLE, 10), "reference_grid": (CIRCLE, 4),
    "support_distance": (CIRCLE, X),
    "load_csv": ("points.csv",), "load_model": ("model.txt",), "save_model": (MODEL, "out.txt"),
    "write_table": ("table.csv", "t", [], ["x"], [(1,)]), "fmt_value": (1.5,),
}
PATH_ARGUMENTS = {("load_csv", 0), ("load_model", 0), ("save_model", 1), ("write_table", 0)}
GARBAGE = (None, 7, "abc", [1, "x"], np.nan, np.zeros((0, 2)), np.zeros((2, 2, 2)), object(),
           True)


def _public(name):
    return getattr(setlearn if name in setlearn.__all__ else oracles, name)


@pytest.fixture
def files(tmp_path, monkeypatch):
    """A scratch directory holding the files the valid calls read; "abc" is a
    valid file name, which a garbage path argument may create."""
    monkeypatch.chdir(tmp_path)
    np.savetxt("points.csv", X, delimiter=",")
    save_model(MODEL, "model.txt")


def test_every_public_callable_has_a_valid_call(files):
    public = {name for name in setlearn.__all__ if callable(getattr(setlearn, name))}
    assert public | {"concentration_trials", "bernstein_trials"} == VALID_CALLS.keys()
    for name, args in VALID_CALLS.items():
        _public(name)(*args)


@pytest.mark.parametrize("name, position", [
    pytest.param(name, i, id=f"{name}-{i}")
    for name, args in VALID_CALLS.items() for i in range(len(args))])
def test_garbage_in_any_position_is_a_package_error(files, name, position):
    """Each positional argument of a valid call, replaced by each garbage value,
    gives a result or a package error, never a stray exception; an ``OSError``
    only for a file path."""
    args = VALID_CALLS[name]
    allowed = (UsageError, DataError, NumericError)
    if (name, position) in PATH_ARGUMENTS:
        allowed += (OSError,)
    for bad in GARBAGE:
        try:
            _public(name)(*args[:position], bad, *args[position + 1:])
        except allowed:
            pass


def _keywords(name):
    """The arguments with a default that the valid call of ``name`` leaves out."""
    try:
        params = list(inspect.signature(_public(name)).parameters.values())
    except ValueError:   # an error type, whose arguments are positional only
        return []
    return [p.name for p in params[len(VALID_CALLS[name]):] if p.default is not p.empty]


@pytest.mark.parametrize("name, keyword", [
    pytest.param(name, keyword, id=f"{name}-{keyword}")
    for name in VALID_CALLS for keyword in _keywords(name)])
def test_garbage_in_any_keyword_is_a_package_error(files, name, keyword):
    """Each keyword argument of a valid call, given each garbage value, gives a
    result or a package error, never a stray exception."""
    for bad in GARBAGE:
        try:
            _public(name)(*VALID_CALLS[name], **{keyword: bad})
        except (UsageError, DataError, NumericError):
            pass
