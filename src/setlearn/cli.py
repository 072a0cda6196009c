"""Command line: train, score, eval, sweep, synth, verify-bounds.

Every command writes plot-ready CSV with a ``#`` metadata header and
prints a short summary.  Exit codes: 0 success, 2 usage error, 3 data
error, 4 numeric failure or an array too large to allocate (a size flag
such as ``--n`` or ``--resolution`` set too high).  With ``--no-timestamp``
all outputs are byte-deterministic for a fixed configuration, seed and
BLAS thread count.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from itertools import repeat

import numpy as np

from .data import fmt_value as _f, load_csv, write_table
from .errors import DataError, NumericError, UsageError
from .estimator import (ALGORITHMS, _check_query, _check_tau, _score_path, fit, member_mask,
                        regularization_path, score_batch)
from .evaluation import hausdorff, parzen_score, roc_auc, symdiff_measure
from .filters import _FILTERS, NULL_EIG, KpcaTruncation, Landweber, format_filter
# In-place solves under the public names, which bench/tracing.py wraps.
from .filters import _decompose_in_place as decompose, _spectrum_in_place as spectrum
from .kernels import _KERNELS, SEPARATES_ALL, _parse_spec, format_kernel, gram, normalize
from .model_io import load_model, save_model
from .oracles import (bernstein_trials, concentration_bound, concentration_trials,
                      effective_dimension)
from .selection import lambda_curvature, rate_lambda, width_heuristic
from .synth import get_task, reference_grid, reference_support, sample, task_names


def _warn(msg):
    print(f"warning: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Shared resolution of data, kernel and filter flags.


def _train_points(args):
    if (args.data is None) == (args.task is None):
        raise UsageError("provide exactly one of --data or --task")
    if args.data is not None:
        ds = load_csv(args.data, header=args.header)
        return ds.points, f"data={args.data}"
    task = get_task(args.task)
    pts = sample(task, args.n, args.seed)
    return pts, f"task={args.task} n={args.n} seed={args.seed}"


def _resolve_sigma(spec, points):
    spec = spec.strip()
    if spec == "auto" or spec.startswith("auto:"):
        k = 10
        if spec.startswith("auto:"):
            try:
                k = int(spec[len("auto:"):])
            except ValueError:
                raise UsageError(f"bad --sigma {spec!r}; expected auto:<k>") from None
        return width_heuristic(points, k), f"auto:k={k}"
    try:
        return float(spec), "fixed"
    except ValueError:
        raise UsageError(f"bad --sigma {spec!r}") from None


# The families a bare --kernel name can give: those whose only option, if
# any, is the width, which --sigma supplies.
_BARE_KERNELS = {name: k for name, k in _KERNELS.items() if set(k.keys) <= {"sigma"}}


def _spec_flag(text, what, table, bare):
    """(family, spec) from a --kernel or --filter value: a full spec is parsed
    against ``table``, and a bare family name from ``bare`` gives (family, None),
    for the other flags to complete."""
    text = text.strip()
    if any(ch in text for ch in " =("):
        spec = _parse_spec(text, what, table)
        return type(spec), spec
    if text not in bare:
        raise UsageError(
            f"unknown {what} {text!r}; use one of {', '.join(bare)} or a full {what} spec")
    return bare[text], None


def _resolve_kernel(args, points, warn=True):
    family, kernel = _spec_flag(args.kernel, "kernel", _KERNELS, _BARE_KERNELS)
    note = "from spec"
    if kernel is None and family.keys:
        sigma, note = _resolve_sigma(args.sigma, points)
        kernel = family(sigma)
    elif kernel is None:
        kernel, note = family(), ""
    if not kernel.unit_diagonal:
        kernel = normalize(kernel)
        if warn:
            _warn("kernel is not unit-diagonal, normalizing it")
    if warn and kernel.separating != SEPARATES_ALL:
        _warn(f"kernel is not completely separating (status: {kernel.separating}); "
              "the score may stay high away from the support")
    return kernel, note


def _resolve_lam(spec, n):
    """(lambda, note) from --lambda: a number, a rate for n points, or None for
    auto, which the spectrum resolves."""
    spec = spec.strip()
    if spec == "auto":
        return None, "auto (spectral curvature)"
    if spec.startswith("rate:"):
        parts = spec[len("rate:"):].split(",")
        try:
            s, b = (float(p) for p in parts)
        except ValueError:
            raise UsageError(f"bad --lambda {spec!r}; expected rate:s,b") from None
        return rate_lambda(n, s, b), f"rate s={_f(s)} b={_f(b)}"
    try:
        return float(spec), "fixed"
    except ValueError:
        raise UsageError(f"bad --lambda {spec!r}") from None


def _filter_flags(args, n):
    """(family, filter, note) from the filter flags for n points; the filter is
    None only for the auto lambda, which awaits the spectrum, and a kPCA
    component count is left to fit."""
    family, filt = _spec_flag(args.filter, "filter", _FILTERS, _FILTERS)
    if filt is not None:
        unresolved = isinstance(filt, KpcaTruncation) and filt.lam is None
        return family, filt, "from spec, components resolved" if unresolved else "from spec"
    # A bare name takes its strength from the first flag named after a spec key.
    # --lambda is args.lam, not args.lambda, so it comes last.
    for key, field in family.keys.items():
        value = getattr(args, key, None)
        if value is not None:
            return family, family(**{field: value}), f"{key}={value}"
    if "lambda" not in family.keys:
        raise UsageError(f"--filter {family.name} needs --{next(iter(family.keys))}")
    lam, note = _resolve_lam(args.lam, n)
    return family, None if lam is None else family(lam), note


def _build_model(points, args, flags, warn=True, vectors=False):
    """Fit the filter ``flags`` (:func:`_filter_flags`, once per command) with the
    kernel and score path resolved against the sample, and at most one spectral
    solve, on a Gram built for it; a path the filter cannot take or a bad margin
    is refused before any Gram.  A Cholesky-path model, for a caller that needs
    no eigenvectors, gets eigenvalues only, and only when the auto lambda reads
    them; every other model gets the decomposition, which it keeps.  Returns the
    model, the eigenvalues of K_n/n (None if not solved) and the two notes."""
    kernel, kernel_note = _resolve_kernel(args, points, warn=warn)
    family, filt, filter_note = flags
    algorithm = _score_path(family, None if args.algorithm == "auto" else args.algorithm)
    _check_tau(args.tau)
    D = None if algorithm == "cholesky" and not vectors else decompose(gram(kernel, points))
    eigenvalues = (D.eigenvalues if D is not None
                   else spectrum(gram(kernel, points)) if filt is None else None)
    if filt is None:
        filt = family(lambda_curvature(eigenvalues))
    model = fit(points, kernel, filt, algorithm, args.tau, D)
    return model, eigenvalues, kernel_note, filter_note


def _config_meta(model, kernel_note, filter_note):
    return [
        format_kernel(model.kernel) + (f" ({kernel_note})" if kernel_note else ""),
        format_filter(model.filter) + (f" ({filter_note})" if filter_note else ""),
        f"algorithm={model.algorithm}",
        f"tau={_f(model.tau)}",
        f"n={model.n}",
        f"d={model.dim}",
    ]


def _summary(model, eigenvalues, kernel_note, filter_note):
    kernel, filt = _config_meta(model, kernel_note, filter_note)[:2]
    top = ", ".join(_f(v) for v in eigenvalues[:5])
    positive = int(np.count_nonzero(eigenvalues > NULL_EIG))
    print(f"n={model.n} d={model.dim}\n{kernel}\n{filt}")
    print(f"algorithm={model.algorithm} tau={_f(model.tau)}")
    print(f"eigenvalues: top=[{top}] positive={positive}")
    lam = getattr(model.filter, "lam", None)
    if lam is not None:
        print(f"effective_dimension(lambda)={_f(effective_dimension(eigenvalues, lam))}")


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_train(args):
    points, source = _train_points(args)
    model, eigenvalues, kernel_note, filter_note = _build_model(
        points, args, _filter_flags(args, points.shape[0]), vectors=args.store_decomposition)
    if eigenvalues is None:
        eigenvalues = spectrum(gram(model.kernel, model.points))
    save_model(model, args.out, fmt=args.model_format,
               include_decomposition=args.store_decomposition)
    eigs_out = args.eigs_out or (args.out + ".eigs.csv")
    write_table(
        eigs_out, "eigenvalue decay", [source] + _config_meta(model, kernel_note, filter_note),
        ["index", "eigenvalue"],
        enumerate(eigenvalues.tolist()),
        timestamp=not args.no_timestamp)
    _summary(model, eigenvalues, kernel_note, filter_note)
    print(f"model written to {args.out}")
    print(f"eigenvalue decay written to {eigs_out}")
    return 0


def _load_and_score(args, label_col=None):
    """The saved model, the test set, its scores and the metadata lines naming them."""
    model = load_model(args.model)
    ds = load_csv(args.data, header=args.header, label_col=label_col)
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
    if args.model is not None:
        return _eval_labeled(args)
    return _eval_task(args)


def _eval_labeled(args):
    if args.data is None:
        raise UsageError("--model evaluation needs --data")
    if args.label_col is None:
        raise UsageError("AUC needs labels: pass --label-col")
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
    if args.n < 1:
        raise UsageError(f"n must be >= 1, got {args.n!r}")
    if args.trials < 1:
        raise UsageError(f"need at least one trial, got {args.trials!r}")
    if args.n_test is not None and args.n_test < 1:
        raise UsageError(f"need at least one test point per class, got {args.n_test!r}")
    task = get_task(args.task)
    flags = _filter_flags(args, args.n)   # every trial draws n points
    n_test = args.n if args.n_test is None else args.n_test
    grid_points, grid_inside, cell_volume = reference_grid(task, args.resolution)
    support = reference_support(task, 2000)
    columns = ["trial", "auc_spectral", "auc_parzen", "hausdorff", "symdiff"]
    rows = []
    for t in range(args.trials):
        train = task.draw(args.n, np.random.default_rng([args.seed, t, 0]))
        model = _build_model(train, args, flags, warn=(t == 0))[0]
        pos = task.draw(n_test, np.random.default_rng([args.seed, t, 1]))
        rng = np.random.default_rng([args.seed, t, 2])
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
    meta = [f"task={args.task}", f"n={args.n}", f"n_test={n_test}",
            f"trials={args.trials}", f"seed={args.seed}",
            f"resolution={args.resolution}", f"cell_volume={_f(cell_volume)}",
            f"kernel={args.kernel}", f"sigma={args.sigma}",
            f"filter={args.filter}", f"lambda={args.lam}", f"tau={_f(args.tau)}"]
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
    points, source = _train_points(args)
    flags = _filter_flags(args, points.shape[0])
    family = flags[0]
    lambdas = _parse_grid(args.lambdas, "--lambdas", integer=family is Landweber)
    taus = _parse_grid(args.taus, "--taus")
    for tau in taus:
        if not 0.0 <= tau < 1.0:
            raise UsageError(f"tau values must lie in [0, 1), got {tau!r}")
    for value in lambdas:   # a strength the family refuses, before the Gram
        family.at(value)
    # the test file is read and its dimension checked before the Gram
    test = (None if args.test is None else
            _check_query(load_csv(args.test, header=args.header).points, points.shape[1]))
    model, _, kernel_note, filter_note = _build_model(points, args, flags, vectors=True)
    test_note = "test=training points" if test is None else f"test={args.test}"
    path = regularization_path(model, model.points if test is None else test, lambdas)

    def rows():
        index = range(path.shape[1])
        for lam, scores in zip(lambdas, path):
            for tau in taus:
                yield from zip(repeat(lam), repeat(tau), index, scores.tolist(),
                               member_mask(scores, tau).tolist())

    meta = [source, test_note, _config_meta(model, kernel_note, filter_note)[0],
            f"filter_family={type(model.filter).__name__}",
            f"lambdas={len(lambdas)}", f"taus={len(taus)}", f"points={path.shape[1]}"]
    write_table(args.out, "regularization sweep", meta,
                ["lambda", "tau", "index", "score", "member"], rows(),
                timestamp=not args.no_timestamp)
    print(f"sweep over {len(lambdas)} lambdas x {len(taus)} taus x {path.shape[1]} points")
    print(f"sweep written to {args.out}")
    return 0


def cmd_synth(args):
    task = get_task(args.task)
    pts = sample(task, args.n, args.seed)
    cols = [f"x{i}" for i in range(task.dim)]
    write_table(args.out, "synthetic sample",
                [f"task={args.task}", f"n={args.n}", f"seed={args.seed}"],
                cols, (tuple(row) for row in pts),
                timestamp=not args.no_timestamp)
    print(f"{args.n} points from task {args.task} written to {args.out}")
    if args.grid_out:
        points, inside, cell_volume = reference_grid(task, args.resolution)
        write_table(args.grid_out, "reference grid",
                    [f"task={args.task}", f"resolution={args.resolution}",
                     f"cell_volume={_f(cell_volume)}",
                     f"thickened={int(task.lower_dimensional)}"],
                    cols + ["inside"],
                    (tuple(row) + (bool(flag),) for row, flag in zip(points, inside)),
                    timestamp=not args.no_timestamp)
        print(f"reference grid written to {args.grid_out}")
    return 0


def cmd_verify_bounds(args):
    if args.trials < 1:
        raise UsageError(f"need at least one trial, got {args.trials!r}")
    if args.harness == "concentration":
        task = get_task(args.task)
        if args.sigma.strip().startswith("auto"):
            raise UsageError("verify-bounds needs a fixed --sigma (no training set to adapt to)")
        kernel, _ = _resolve_kernel(args, points=None)
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
    sp.add_argument("--header", action="store_true",
                    help="skip the first row of CSV inputs")
    sp.add_argument("--task", help="synthetic task: " + ", ".join(task_names()))
    sp.add_argument("--n", type=int, default=200, help="sample size for --task")
    sp.add_argument("--kernel", default="abel",
                    help=" | ".join(_BARE_KERNELS) + ", or a full kernel spec")
    sp.add_argument("--sigma", default="auto",
                    help="kernel width: a number, auto, or auto:<k>")
    sp.add_argument("--filter", default="tikhonov",
                    help=" | ".join(_FILTERS) + ", or a full filter spec")
    sp.add_argument("--lambda", dest="lam", default="auto",
                    help="regularization: a number, auto, or rate:s,b")
    sp.add_argument("--m", type=int, help="landweber iteration count")
    sp.add_argument("--components", type=int, help="kpca component count")
    sp.add_argument("--tau", type=float, default=0.0,
                    help="membership margin in [0, 1)")
    sp.add_argument("--algorithm", default="auto",
                    choices=["auto", *ALGORITHMS])


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
    sp.add_argument("--seed", type=int, default=0)
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
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=10, help="trials in task mode")
    sp.add_argument("--n-test", type=int, help="test points per class (default --n)")
    sp.add_argument("--resolution", type=int, default=64, help="grid points per axis")
    _add_out_flags(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("sweep", help="score a grid of (lambda, tau) from one decomposition")
    _add_config_flags(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--lambdas", required=True,
                    help="comma-separated lambda grid (iteration counts for landweber)")
    sp.add_argument("--taus", default="0", help="comma-separated tau grid")
    sp.add_argument("--test", help="CSV of points to score (default: the training set)")
    _add_out_flags(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("synth", help="write a synthetic sample (and reference grid)")
    sp.add_argument("--task", required=True)
    sp.add_argument("--n", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    _add_out_flags(sp)
    sp.add_argument("--grid-out", help="also write the reference grid CSV")
    sp.add_argument("--resolution", type=int, default=64)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("verify-bounds", help="Monte-Carlo check of the error bounds")
    sp.add_argument("--harness", choices=["concentration", "bernstein"],
                    default="concentration")
    sp.add_argument("--task", default="circle", help="sampler for the concentration harness")
    sp.add_argument("--kernel", default="abel")
    sp.add_argument("--sigma", default="1")
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--delta", type=float, default=2.0)
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--ref-size", type=int, default=20000)
    sp.add_argument("--seed", type=int, default=0)
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
