"""Command line: train, score, eval, sweep, synth, verify-bounds.

Every command writes plot-ready CSV with a ``#`` metadata header and
prints a short summary.  Exit codes: 0 success, 2 usage error, 3 data
error, 4 numeric failure or an array too large to allocate (a size flag
such as ``--n`` or ``--resolution`` set too high).  With ``--no-timestamp``
all outputs are byte-deterministic for a fixed configuration, seed and
BLAS thread count.  The model and trial flags take their defaults from one
table, ``_DEFAULTS`` (``verify-bounds`` from its own, ``_BOUNDS_DEFAULTS``),
and a command refuses with exit 2 such a flag, or ``--header``, that it was
given but does not read.
"""

from __future__ import annotations

import argparse
import sys
from collections import namedtuple
from functools import cache
from itertools import repeat

import numpy as np

from .data import _check_lines, fmt_value as _f, load_csv, write_table
from .errors import DataError, NumericError, UsageError, check_number, check_seed
from .estimator import (ALGORITHMS, _check_query, _check_tau, _score_path, fit, member_mask,
                        regularization_path, score_batch)
from .evaluation import hausdorff, parzen_score, roc_auc, symdiff_measure
from .filters import _FILTERS, NULL_EIG, KpcaTruncation, Landweber, format_filter
# The in-place eigensolve under the public name decompose, which bench/tracing.py wraps.
from .filters import _decompose_in_place as decompose, _spectrum_in_place
from .kernels import _KERNELS, SEPARATES_ALL, _parse_spec, format_kernel, gram, normalize
from .model_io import load_model, save_model
from .oracles import (bernstein_trials, concentration_bound, concentration_trials,
                      effective_dimension)
from .selection import lambda_curvature, rate_lambda, width_heuristic
from .synth import get_task, reference_grid, reference_support, sample, task_names


def _warn(msg):
    print(f"warning: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# One resolved configuration per command.

# The model and trial flags parse to None, so a command tells a given flag from a default.
_DEFAULTS = {"n": 200, "seed": 0, "kernel": "abel", "sigma": "auto", "filter": "tikhonov",
             "lam": "auto", "tau": 0.0, "algorithm": "auto", "trials": 10, "resolution": 64}
_BOUNDS_DEFAULTS = {"harness": "concentration", "task": "circle", "kernel": "abel", "sigma": "1",
                    "n": 100, "delta": 2.0, "trials": 500, "ref_size": 20000, "seed": 0}


def _value(args, key, defaults=_DEFAULTS):
    """A flag's value, or its default if it was not given."""
    value = getattr(args, key)
    return defaults[key] if value is None else value


def _refuse(args, keys, why):
    """Exit 2 naming the first flag of ``keys`` that was given: ``why`` nothing reads it."""
    for key in keys:
        if getattr(args, key) is not None:
            raise UsageError(f"--{'lambda' if key == 'lam' else key.replace('_', '-')} {why}")


# A command's model configuration, resolved once before any Gram and read by its model
# builds and metadata lines: the kernel, or a width family awaiting the sample's auto_k-th
# neighbour width; the filter family and filter, None for the auto lambda; path and tau.
_Config = namedtuple("_Config", "kernel auto_k kernel_note family filter filter_note "
                                "algorithm tau")


def _train_points(args):
    if (args.data is None) == (args.task is None):
        raise UsageError("provide exactly one of --data or --task")
    if args.data is not None:
        _refuse(args, ["n", "seed"], "applies only to --task")
        ds = load_csv(args.data, header=bool(args.header))
        return ds.points, f"data={args.data}"
    if getattr(args, "test", None) is None:   # sweep reads --header for its --test file too
        reads = "--data or --test" if hasattr(args, "test") else "--data"
        _refuse(args, ["header"], f"applies only to {reads}")
    n, seed = _value(args, "n"), _value(args, "seed")
    return sample(get_task(args.task), n, seed), f"task={args.task} n={n} seed={seed}"


# The families a bare --kernel name can give: those whose only option, if
# any, is the width, which --sigma supplies.
_BARE_KERNELS = {name: k for name, k in _KERNELS.items() if set(k.keys) <= {"sigma"}}
_WIDTH_KERNELS = [name for name, k in _BARE_KERNELS.items() if k.keys]


def _resolve_kernel(args, defaults=_DEFAULTS):
    """(kernel, k, note) from the --kernel and --sigma flags: a full spec or a
    family without a width is the kernel, and --sigma beside it exits 2; a
    family with a width takes it from --sigma, a number or auto:k (auto is
    auto:10), which leaves the family and the neighbour count k to the sample."""
    text = _value(args, "kernel", defaults).strip()
    if text not in _WIDTH_KERNELS:
        if any(ch in text for ch in " =("):
            kernel, note = _parse_spec(text, "kernel", _KERNELS), "from spec"
        elif text in _BARE_KERNELS:
            kernel, note = _BARE_KERNELS[text](), ""
        else:
            raise UsageError(f"unknown kernel {text!r}; use one of {', '.join(_BARE_KERNELS)} "
                             "or a full kernel spec")
        _refuse(args, ["sigma"], f"does not apply to --kernel {text!r}")
        return kernel, None, note
    family, sigma = _BARE_KERNELS[text], _value(args, "sigma", defaults).strip()
    if sigma == "auto" or sigma.startswith("auto:"):
        try:
            k = 10 if sigma == "auto" else int(sigma[len("auto:"):])
        except ValueError:
            raise UsageError(f"bad --sigma {sigma!r}; expected auto:<k>") from None
        return family, k, f"auto:k={k}"
    try:
        width = float(sigma)
    except ValueError:
        raise UsageError(f"bad --sigma {sigma!r}") from None
    return family(width), None, "fixed"


def _unit_kernel(kernel):
    """The kernel with a unit diagonal, warning once of what it lacks."""
    if not kernel.unit_diagonal:
        kernel = normalize(kernel)
        _warn("kernel is not unit-diagonal, normalizing it")
    if kernel.separating != SEPARATES_ALL:
        _warn(f"kernel is not completely separating (status: {kernel.separating}); "
              "the score may stay high away from the support")
    return kernel


def _resolve_filter(args, n):
    """(family, filter, note) from the filter flags for n points.  A bare name
    takes its strength from --m or --components, else from --lambda: a number,
    a rate for n points, or auto, for which the filter is None until the
    spectrum resolves it.  A kPCA component count is left to fit."""
    text = _value(args, "filter").strip()
    if any(ch in text for ch in " =("):
        filt = _parse_spec(text, "filter", _FILTERS)
        _refuse(args, ["m", "components", "lam"], "does not apply to a full --filter spec")
        unresolved = isinstance(filt, KpcaTruncation) and filt.lam is None
        return type(filt), filt, "from spec, components resolved" if unresolved else "from spec"
    if text not in _FILTERS:
        raise UsageError(f"unknown filter {text!r}; use one of {', '.join(_FILTERS)} "
                         "or a full filter spec")
    family = _FILTERS[text]
    given = [key for key in ("m", "components", "lambda")
             if getattr(args, "lam" if key == "lambda" else key) is not None]
    key = next((key for key in given if key in family.keys), "lambda")
    for other in (other for other in given if other != key):
        raise UsageError(f"--{other} does not apply to --filter {text}"
                         + (f" with --{key}" if other in family.keys else ""))
    if key not in family.keys:
        raise UsageError(f"--filter {text} needs --{next(iter(family.keys))}")
    if key != "lambda":
        value = getattr(args, key)
        return family, family(**{family.keys[key]: value}), f"{key}={value}"
    spec = _value(args, "lam").strip()
    if spec == "auto":
        return family, None, "auto (spectral curvature)"
    if spec.startswith("rate:"):
        try:
            s, b = (float(p) for p in spec[len("rate:"):].split(","))
        except ValueError:
            raise UsageError(f"bad --lambda {spec!r}; expected rate:s,b") from None
        return family, family(rate_lambda(n, s, b)), f"rate s={_f(s)} b={_f(b)}"
    try:
        lam = float(spec)
    except ValueError:
        raise UsageError(f"bad --lambda {spec!r}") from None
    return family, family(lam), "fixed"


def _resolve(args, n):
    """The configuration of ``train``, ``sweep`` or ``eval --task`` for samples of
    n points; a flag that it does not read exits 2, as a bad value does."""
    family, filt, filter_note = _resolve_filter(args, n)
    algorithm = _value(args, "algorithm")
    algorithm = _score_path(family, None if algorithm == "auto" else algorithm)
    tau = _check_tau(_value(args, "tau"))
    kernel, k, kernel_note = _resolve_kernel(args)
    if k is not None and not 1 <= k < n:
        raise UsageError(f"--sigma auto:<k> needs k in [1, n) = [1, {n}), got {k}")
    return _Config(_unit_kernel(kernel), k, kernel_note, family, filt, filter_note,
                   algorithm, tau)


def _build_model(points, config, vectors=False):
    """Fit ``config`` to a sample with at most one spectral solve, on a Gram
    built for it.  A Cholesky-path model, for a caller that needs no
    eigenvectors, gets eigenvalues only, and only when the auto lambda reads
    them; every other model gets the decomposition.  Returns the model and the
    eigenvalues of K_n/n (None if not solved)."""
    kernel = config.kernel
    if config.auto_k is not None:
        kernel = kernel(width_heuristic(points, config.auto_k))
    filt = config.filter
    D = (None if config.algorithm == "cholesky" and not vectors
         else decompose(gram(kernel, points)))
    eigenvalues = (D.eigenvalues if D is not None
                   else _spectrum_in_place(gram(kernel, points)) if filt is None else None)
    if filt is None:
        filt = config.family(lambda_curvature(eigenvalues))
    return fit(points, kernel, filt, config.algorithm, config.tau, D), eigenvalues


def _config_meta(model, config):
    return [
        format_kernel(model.kernel) + (f" ({config.kernel_note})" if config.kernel_note else ""),
        format_filter(model.filter) + (f" ({config.filter_note})" if config.filter_note else ""),
        f"algorithm={model.algorithm}",
        f"tau={_f(model.tau)}",
        f"n={model.n}",
        f"d={model.dim}",
    ]


def _summary(model, eigenvalues, config):
    kernel, filt, algorithm, tau, n, d = _config_meta(model, config)
    top = ", ".join(_f(v) for v in eigenvalues[:5])
    positive = int(np.count_nonzero(eigenvalues > NULL_EIG))
    print(f"{n} {d}\n{kernel}\n{filt}\n{algorithm} {tau}")
    print(f"eigenvalues: top=[{top}] positive={positive}")
    lam = getattr(model.filter, "lam", None)
    if lam is not None:
        print(f"effective_dimension(lambda)={_f(effective_dimension(eigenvalues, lam))}")


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_train(args):
    points, source = _train_points(args)
    config = _resolve(args, points.shape[0])
    model, eigenvalues = _build_model(points, config, vectors=args.store_decomposition)
    if eigenvalues is None:
        eigenvalues = _spectrum_in_place(gram(model.kernel, model.points))
    save_model(model, args.out, fmt=args.model_format,
               include_decomposition=args.store_decomposition)
    eigs_out = args.eigs_out or (args.out + ".eigs.csv")
    write_table(
        eigs_out, "eigenvalue decay", [source] + _config_meta(model, config),
        ["index", "eigenvalue"],
        enumerate(eigenvalues.tolist()),
        timestamp=not args.no_timestamp)
    _summary(model, eigenvalues, config)
    print(f"model written to {args.out}")
    print(f"eigenvalue decay written to {eigs_out}")
    return 0


def _load_and_score(args, label_col=None):
    """The saved model, the test set, its scores and the metadata lines naming them."""
    model = load_model(args.model)
    ds = load_csv(args.data, header=bool(args.header), label_col=label_col)
    meta = [f"model={args.model}", f"data={args.data}",
            format_kernel(model.kernel), format_filter(model.filter)]
    return model, ds, score_batch(model, ds.points), meta


def _parzen_auc(kernel, train, X, labels):
    """AUC of the Parzen baseline at the kernel's width; NaN for a kernel without
    one, or with a warning for a width at which the baseline leaves the float range."""
    h = getattr(kernel, "sigma", None)
    if h is None:
        return np.nan
    try:
        scores = parzen_score(train, h, X)
    except NumericError as exc:
        _warn(f"auc_parzen is nan: {exc}")
        return np.nan
    return roc_auc(scores, labels)[1]


def cmd_score(args):
    tau = None if args.tau is None else _check_tau(args.tau)   # before the factor
    model, ds, scores, meta = _load_and_score(args)
    tau = model.tau if tau is None else tau
    member = member_mask(scores, tau)
    write_table(
        args.out, "scores",
        meta + [f"tau={_f(tau)}", f"n_train={model.n}", f"n_test={ds.n}"],
        ["index", "score", "member"],
        ((i, s, m) for i, (s, m) in enumerate(zip(scores.tolist(), member.tolist()))),
        timestamp=not args.no_timestamp)
    print(f"scored {ds.n} points; members={int(member.sum())} at tau={_f(tau)}")
    print(f"scores written to {args.out}")
    return 0


def cmd_eval(args):
    if (args.model is not None) == (args.task is not None):
        raise UsageError("provide exactly one of --model (labeled data) or --task (trials)")
    return _eval_labeled(args) if args.model is not None else _eval_task(args)


def _eval_labeled(args):
    if args.data is None:
        raise UsageError("--model evaluation needs --data")
    if args.label_col is None:
        raise UsageError("AUC needs labels: pass --label-col")
    _refuse(args, [*_DEFAULTS, "m", "components", "n_test"], "applies only to --task evaluation")
    model, ds, scores, meta = _load_and_score(args, label_col=args.label_col)
    roc, auc = roc_auc(scores, ds.labels)
    auc_parzen = _parzen_auc(model.kernel, model.points, ds.points, ds.labels)
    write_table(
        args.out, "evaluation",
        meta + [f"positives={int(ds.labels.sum())}", f"negatives={int((~ds.labels).sum())}"],
        ["trial", "auc_spectral", "auc_parzen"],
        [(0, auc, auc_parzen)],
        timestamp=not args.no_timestamp)
    if args.roc_out:
        write_table(args.roc_out, "roc curve", meta[:2] + [f"auc={_f(auc)}"],
                    ["fpr", "tpr"], ((p[0], p[1]) for p in roc),
                    timestamp=not args.no_timestamp)
        print(f"roc points written to {args.roc_out}")
    print(f"auc_spectral={_f(auc)}" +
          ("" if np.isnan(auc_parzen) else f" auc_parzen={_f(auc_parzen)}"))
    print(f"evaluation written to {args.out}")
    return 0


def _eval_task(args):
    _refuse(args, ["data", "header", "label_col", "roc_out"],
            "applies only to --model evaluation")
    n, trials, seed, resolution = (_value(args, k) for k in ("n", "trials", "seed", "resolution"))
    n_test = n if args.n_test is None else args.n_test
    check_number("n must be >= 1", n, ok=lambda v: v >= 1)
    check_number("trials must be an integer >= 1", trials, ok=lambda v: v >= 1, integral=True)
    check_number("need at least one test point per class", n_test, ok=lambda v: v >= 1)
    check_seed(seed)
    task = get_task(args.task)
    config = _resolve(args, n)   # every trial draws n points
    grid_points, grid_inside, cell_volume = reference_grid(task, resolution)
    # The flags' own text, checked as write_table checks it, before the first trial.
    meta = [f"task={args.task}", f"n={n}", f"n_test={n_test}", f"trials={trials}",
            f"seed={seed}", f"resolution={resolution}", f"cell_volume={_f(cell_volume)}",
            f"kernel={_value(args, 'kernel')}", f"sigma={_value(args, 'sigma')}",
            f"filter={_value(args, 'filter')}", f"lambda={_value(args, 'lam')}",
            f"tau={_f(config.tau)}"]
    _check_lines(*meta)
    support = reference_support(task, 2000)
    columns = ["trial", "auc_spectral", "auc_parzen", "hausdorff", "symdiff"]
    rows = []
    for t in range(trials):
        train = task.draw(n, np.random.default_rng([seed, t, 0]))
        model = _build_model(train, config)[0]
        pos = task.draw(n_test, np.random.default_rng([seed, t, 1]))
        rng = np.random.default_rng([seed, t, 2])
        neg = np.column_stack([rng.uniform(lo, hi, n_test) for lo, hi in task.bounding_box])
        X = np.vstack([pos, neg])
        labels = np.r_[np.ones(len(pos), dtype=bool), np.zeros(len(neg), dtype=bool)]
        _, auc = roc_auc(score_batch(model, X), labels)
        auc_parzen = _parzen_auc(model.kernel, train, X, labels)
        member = member_mask(score_batch(model, grid_points), model.tau)
        dmu = symdiff_measure(member, grid_inside, cell_volume)
        dh = hausdorff(grid_points[member], support) if member.any() else np.nan
        rows.append((t, auc, auc_parzen, dh, dmu))
    body = np.asarray([r[1:] for r in rows], dtype=float)
    summary = [("mean", *body.mean(axis=0))]
    if len(rows) >= 2:
        summary.append(("std", *body.std(axis=0, ddof=1)))
    write_table(args.out, "task evaluation", meta, columns, rows + summary,
                timestamp=not args.no_timestamp)
    for label, *vals in summary:
        print(label + ": " + " ".join(
            f"{c}={_f(v)}" for c, v in zip(columns[1:], vals)))
    print(f"evaluation written to {args.out}")
    return 0


def _parse_grid(text, what, integer=False):
    items = [t for t in text.split(",") if t.strip() != ""]
    if not items:
        raise UsageError(f"{what} must be a nonempty comma-separated list")
    try:
        return [int(t) if integer else float(t) for t in items]
    except ValueError:
        raise UsageError(f"bad value in {what}: {text!r}") from None


def cmd_sweep(args):
    _refuse(args, ["tau", "algorithm"],
            "does not apply to sweep, which scores its grid through the decomposition")
    points, source = _train_points(args)
    config = _resolve(args, points.shape[0])
    lambdas = _parse_grid(args.lambdas, "--lambdas", integer=config.family is Landweber)
    taus = _parse_grid(args.taus, "--taus")
    check_number("tau values must lie in [0, 1)", *taus, ok=lambda v: 0 <= v < 1)
    for value in lambdas:   # a strength the family refuses, before the Gram
        config.family(value)
    # the test file is read and its dimension checked before the Gram
    test = (None if args.test is None else
            _check_query(load_csv(args.test, header=bool(args.header)).points, points.shape[1]))
    model = _build_model(points, config, vectors=True)[0]
    test_note = "test=training points" if test is None else f"test={args.test}"
    path = regularization_path(model, model.points if test is None else test, lambdas)

    def rows():
        index = range(path.shape[1])
        for lam, scores in zip(lambdas, path):
            for tau in taus:
                yield from zip(repeat(lam), repeat(tau), index, scores.tolist(),
                               member_mask(scores, tau).tolist())

    meta = [source, test_note, _config_meta(model, config)[0],
            f"filter_family={type(model.filter).__name__}",
            f"lambdas={len(lambdas)}", f"taus={len(taus)}", f"points={path.shape[1]}"]
    write_table(args.out, "regularization sweep", meta,
                ["lambda", "tau", "index", "score", "member"], rows(),
                timestamp=not args.no_timestamp)
    print(f"sweep over {len(lambdas)} lambdas x {len(taus)} taus x {path.shape[1]} points")
    print(f"sweep written to {args.out}")
    return 0


def cmd_synth(args):
    if not args.grid_out:
        _refuse(args, ["resolution"], "applies only with --grid-out")
    n, seed, resolution = (_value(args, k) for k in ("n", "seed", "resolution"))
    task = get_task(args.task)
    pts = sample(task, n, seed)
    cols = [f"x{i}" for i in range(task.dim)]
    write_table(args.out, "synthetic sample", [f"task={args.task}", f"n={n}", f"seed={seed}"],
                cols, (tuple(row) for row in pts), timestamp=not args.no_timestamp)
    print(f"{n} points from task {args.task} written to {args.out}")
    if args.grid_out:
        points, inside, cell_volume = reference_grid(task, resolution)
        write_table(args.grid_out, "reference grid",
                    [f"task={args.task}", f"resolution={resolution}",
                     f"cell_volume={_f(cell_volume)}",
                     f"thickened={int(task.lower_dimensional)}"],
                    cols + ["inside"],
                    (tuple(row) + (bool(flag),) for row, flag in zip(points, inside)),
                    timestamp=not args.no_timestamp)
        print(f"reference grid written to {args.grid_out}")
    return 0


def cmd_verify_bounds(args):
    if args.harness == "bernstein":
        _refuse(args, ["task", "kernel", "sigma", "ref_size"],
                "applies only to --harness concentration")
    else:   # before the defaults fill in, so that only a given --sigma is refused
        kernel, k, _ = _resolve_kernel(args, _BOUNDS_DEFAULTS)
        if k is not None:
            raise UsageError("verify-bounds needs a fixed --sigma (no training set to adapt to)")
    vars(args).update((key, _value(args, key, _BOUNDS_DEFAULTS)) for key in _BOUNDS_DEFAULTS)
    if args.harness == "concentration":
        task = get_task(args.task)
        kernel = _unit_kernel(kernel)
        observed, bound = concentration_trials(
            task.draw, kernel, args.n, args.delta, args.trials,
            args.ref_size, args.seed)
        meta = [f"harness=concentration", f"task={args.task}",
                format_kernel(kernel), f"ref_size={args.ref_size}",
                f"reference stands in for the true operator; its own deviation "
                f"is bounded by {_f(concentration_bound(args.ref_size, args.delta))} at the same confidence"]
    else:
        observed, bound = bernstein_trials(args.n, args.delta, args.trials, args.seed)
        meta = [f"harness=bernstein", "sample=coin flips in {-1,+1}, M=1, variance=1"]
    violated = observed > bound
    fraction = float(violated.mean())
    tolerated = _f(2.0 * np.exp(-args.delta))
    write_table(
        args.out, "bound verification",
        meta + [f"trials={args.trials}", f"seed={args.seed}"],
        ["trial", "n", "delta", "observed", "bound", "violated"],
        ((t, args.n, args.delta, observed[t], bound, bool(violated[t]))
         for t in range(args.trials)),
        timestamp=not args.no_timestamp,
        footer=[f"violation_fraction={_f(fraction)}",
                f"tolerated_fraction={tolerated}"])
    print(f"{args.harness}: violation fraction {_f(fraction)} "
          f"(tolerated {tolerated}) over {args.trials} trials")
    print(f"table written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser.


def _add_config_flags(sp):
    sp.add_argument("--data", help="CSV of training points")
    sp.add_argument("--header", action="store_true", default=None,
                    help="skip the first row of CSV inputs")
    sp.add_argument("--task", help="synthetic task: " + ", ".join(task_names()))
    sp.add_argument("--n", type=int, help="sample size for --task")
    sp.add_argument("--seed", type=int, help="random seed for --task")
    sp.add_argument("--kernel", help=" | ".join(_BARE_KERNELS) + ", or a full kernel spec")
    sp.add_argument("--sigma", help="kernel width: a number, auto, or auto:<k>")
    sp.add_argument("--filter", help=" | ".join(_FILTERS) + ", or a full filter spec")
    sp.add_argument("--lambda", dest="lam", help="regularization: a number, auto, or rate:s,b")
    sp.add_argument("--m", type=int, help="landweber iteration count")
    sp.add_argument("--components", type=int, help="kpca component count")
    sp.add_argument("--tau", type=float, help="membership margin in [0, 1)")
    sp.add_argument("--algorithm", choices=["auto", *ALGORITHMS])


def _add_out_flags(sp):
    sp.add_argument("--out", required=True, help="output path")
    sp.add_argument("--no-timestamp", action="store_true",
                    help="omit the generated= line for byte-reproducible output")


def build_parser():
    p = argparse.ArgumentParser(
        prog="setlearn",
        description="Support estimation with separating kernels and spectral filters")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("train", help="fit a support model and persist it")
    _add_config_flags(sp)
    _add_out_flags(sp)
    sp.add_argument("--eigs-out", help="eigenvalue decay CSV (default: <out>.eigs.csv)")
    sp.add_argument("--model-format", choices=["text", "binary"], default="text")
    sp.add_argument("--store-decomposition", action="store_true",
                    help="persist the eigendecomposition inside the model file")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("score", help="score a test set with a saved model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True, help="CSV of test points")
    sp.add_argument("--header", action="store_true")
    sp.add_argument("--tau", type=float, default=None,
                    help="override the model's membership margin")
    _add_out_flags(sp)
    sp.set_defaults(func=cmd_score)

    sp = sub.add_parser("eval", help="AUC and set metrics, labeled data or task trials")
    sp.add_argument("--model", help="saved model (labeled-data mode)")
    sp.add_argument("--label-col", type=int,
                    help="label column index in --data (nonzero = positive)")
    sp.add_argument("--roc-out", help="write ROC points CSV (labeled-data mode)")
    _add_config_flags(sp)
    sp.add_argument("--trials", type=int, help="trials in task mode")
    sp.add_argument("--n-test", type=int, help="test points per class (default --n)")
    sp.add_argument("--resolution", type=int, help="grid points per axis")
    _add_out_flags(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("sweep", help="score a grid of (lambda, tau) from one decomposition")
    _add_config_flags(sp)
    sp.add_argument("--lambdas", required=True,
                    help="comma-separated lambda grid (iteration counts for landweber)")
    sp.add_argument("--taus", default="0", help="comma-separated tau grid")
    sp.add_argument("--test", help="CSV of points to score (default: the training set)")
    _add_out_flags(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("synth", help="write a synthetic sample (and reference grid)")
    sp.add_argument("--task", required=True)
    sp.add_argument("--n", type=int)
    sp.add_argument("--seed", type=int)
    _add_out_flags(sp)
    sp.add_argument("--grid-out", help="also write the reference grid CSV")
    sp.add_argument("--resolution", type=int)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("verify-bounds", help="Monte-Carlo check of the error bounds")
    sp.add_argument("--harness", choices=["concentration", "bernstein"])
    sp.add_argument("--task", help="sampler for the concentration harness")
    sp.add_argument("--kernel")
    sp.add_argument("--sigma")
    sp.add_argument("--n", type=int)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--ref-size", type=int)
    sp.add_argument("--seed", type=int)
    _add_out_flags(sp)
    sp.set_defaults(func=cmd_verify_bounds)

    return p


# One parser per process: parse_args leaves it as it was, and argparse looks up
# sys.stderr and the terminal width only when it prints.
_parser = cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
