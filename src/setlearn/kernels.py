"""Kernel specifications, the metric they induce, and Gram matrix assembly.

A kernel spec is an immutable value describing a positive definite function
on pairs of dense real vectors.  Specs carry two documented properties:

``unit_diagonal``
    whether K(x, x) = 1 for every x.  Support estimation requires this;
    wrap other kernels with :func:`normalize`.
``separating``
    which class of closed sets the kernel is known to separate, one of
    ``"complete"`` (all closed subsets), ``"linear"`` (affine subspaces
    only) or ``"none"`` (no guarantee).  The exponential kernels are
    completely separating; the Gaussian kernel is not, which is why it is
    a poor default for set estimation even though it is a fine smoother.

Each family is declared once, on its class, the way every kernel and
filter family is (see :class:`_Spec`); one parser (:func:`_parse_spec`)
and one formatter (:func:`_format_spec`) serve both kinds, and kernels
read one table of families, ``_KERNELS``.  The width kernels share one
implementation, exp(-d(x, y) / scale), and each declares its distance d.

Each block of kernel values is built in one buffer: the width kernels
scale and exponentiate the array ``cdist`` returns in place, and the
normalized and product kernels divide or multiply into their inner
block.  The bits are those of the out-of-place formulas: d / (-s) is
-(d / s) in IEEE arithmetic, and 1 * a is a.  A self-block comes out
exactly symmetric, so ``gram`` keeps it as built: ``cdist`` computes
d(x, y) and d(y, x) alike, the normalized and product kernels work
elementwise, and numpy forms the ``Linear`` block X X' of one buffer with
``syrk``, which mirrors one triangle.

All evaluation is elementwise-deterministic: the same pair of points gives
bit-identical values regardless of batch shape or argument order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DataError, NumericError, UsageError, check_flag, check_number, real_array

# PSD slack for Gram matrices, relative to the matrix 1-norm.
EPS_PSD = 1e-10

# Dense Gram matrices above this point count are refused (memory guard).
MAX_GRAM_POINTS = 10000

SEPARATES_ALL = "complete"
SEPARATES_LINEAR = "linear"
SEPARATES_NONE = "none"

__all__ = [
    "Kernel", "Abel", "L1Exponential", "Gaussian", "Linear", "Normalized",
    "Product", "kernel_eval", "induced_metric", "metric_matrix",
    "normalize", "product_kernel", "gram", "cross_gram", "parse_kernel",
    "format_kernel", "EPS_PSD", "MAX_GRAM_POINTS",
]


def _as_points(points, name="points"):
    arr = real_array(f"{name} must be real numbers", points, data=True).astype(float, copy=False)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DataError(f"{name} must be a nonempty 2-d array, got shape {np.shape(points)}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite coordinates")
    return arr


def _point_pair(X, Y, names=("X", "Y")):
    """Two point sets as :func:`_as_points` checks them, of one dimension."""
    X, Y = _as_points(X, names[0]), _as_points(Y, names[1])
    if X.shape[1] != Y.shape[1]:
        raise DataError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    return X, Y


def _single_pair(x, y, caller, batch):
    """One point each, as a (1, d) pair; ``batch`` names the functions for batches."""
    x, y = _point_pair(x, y, ("x", "y"))
    if x.shape[0] != 1 or y.shape[0] != 1:
        raise DataError(f"{caller} expects single points, use {batch} for batches")
    return x, y


class _Spec:
    """A kernel or filter family, declared once, on its class.

    ``name`` is its text name; ``keys`` maps each spec key to the field it
    sets.  The options are ``key=value`` for each field that is set, and a
    key's value is read back as a number of its field's annotated type,
    unless the family formats and parses its own (``_options`` and
    ``_parse``).  :func:`_parse_spec` and :func:`_format_spec` serve both
    kinds.
    """

    name = None
    keys = {}

    def _options(self):
        return [f"{key}={value!r}" for key, field in self.keys.items()
                if (value := getattr(self, field)) is not None]

    @classmethod
    def _parse(cls, key, text):
        field = cls.keys[key]
        kind = int if cls.__dataclass_fields__[field].type == "int" else float
        try:
            value = kind(text)
        except ValueError:
            raise UsageError(f"bad {key}: {text!r}") from None
        return cls(**{field: value})


@dataclass(frozen=True)
class Kernel(_Spec):
    """Base class for kernel specs (see :class:`_Spec`); subclasses implement
    ``_pairwise``/``_diag``."""

    def _pairwise(self, X, Y):
        raise NotImplementedError

    def _diag(self, X):
        raise NotImplementedError


@dataclass(frozen=True)
class _Exponential(Kernel):
    """exp(-cdist(x, y, metric) / scale), unit-diagonal.

    Each family declares its text ``name`` and distance ``metric``; the
    scale is the width ``sigma`` unless the family says otherwise.
    """

    sigma: float

    keys = {"sigma": "sigma"}
    unit_diagonal = True
    separating = SEPARATES_ALL

    def __post_init__(self):
        check_number("kernel width must be positive and finite", self.sigma,
                     ok=lambda v: 0 < v < np.inf)
        object.__setattr__(self, "sigma", float(self.sigma))
        if self._scale() == 0.0:   # exp(-0/0) is NaN where two points coincide
            raise UsageError(f"kernel width {self.sigma!r} is so small that its scale underflows")

    def _scale(self):
        return self.sigma

    def _pairwise(self, X, Y):
        D = cdist(X, Y, self.metric)
        with np.errstate(over="ignore"):   # a quotient past the float range gives exp(-inf) = 0
            np.divide(D, -self._scale(), out=D)
        return np.exp(D, out=D)

    def _diag(self, X):
        return np.ones(X.shape[0])


class Abel(_Exponential):
    """exp(-||x - y|| / sigma), completely separating."""

    name = "abel"
    metric = "euclidean"


class L1Exponential(_Exponential):
    """exp(-||x - y||_1 / sigma), completely separating."""

    name = "l1exp"
    metric = "cityblock"


class Gaussian(_Exponential):
    """exp(-||x - y||^2 / sigma^2).  Smooth but not separating."""

    name = "gaussian"
    metric = "sqeuclidean"
    separating = SEPARATES_NONE

    def _scale(self):
        return self.sigma * self.sigma


@dataclass(frozen=True)
class Linear(Kernel):
    """x . y, separates affine subspaces only.  Not unit-diagonal."""

    name = "linear"
    unit_diagonal = False
    separating = SEPARATES_LINEAR

    def _pairwise(self, X, Y):
        return X @ Y.T

    def _diag(self, X):
        return np.einsum("ij,ij->i", X, X)


@dataclass(frozen=True)
class Normalized(Kernel):
    """inner(x, y) / sqrt(inner(x, x) * inner(y, y))."""

    inner: Kernel

    name = "normalized"
    keys = {"inner": "inner"}
    unit_diagonal = True

    def __post_init__(self):
        _kernel(self.inner)

    @property
    def separating(self):
        return self.inner.separating

    def _normalizer(self, X):
        d = self.inner._diag(X)
        if np.any(d <= 0):
            raise NumericError("cannot normalize: K(x, x) <= 0 at an evaluation point")
        return d

    def _pairwise(self, X, Y):
        S = np.outer(self._normalizer(X), self._normalizer(Y))
        M = self.inner._pairwise(X, Y)
        return np.divide(M, np.sqrt(S, out=S), out=M)

    def _diag(self, X):
        self._normalizer(X)
        return np.ones(X.shape[0])

    def _options(self):
        return [f"inner=({format_kernel(self.inner, prefix=False)})"]

    @classmethod
    def _parse(cls, key, text):
        return normalize(parse_kernel(_strip_group(text)))


@dataclass(frozen=True)
class Product(Kernel):
    """Product of factor kernels applied to disjoint coordinate slices.

    ``factors`` holds (kernel, (start, stop)) pairs, or (kernel, slice) pairs
    with explicit start and stop, whose half-open ranges tile the coordinate
    range 0..d with no gap or overlap.  Any order is accepted: the product
    keeps its factors sorted by start, as a tuple of (kernel, (int, int))
    pairs.  A single factor stays a one-factor product, which keeps its
    slice and so the dimension it checks.
    """

    factors: tuple

    name = "product"
    keys = {"factors": "factors"}

    def __post_init__(self):
        try:
            factors = [(k, (w.start, w.stop) if isinstance(w, slice) and w.step in (None, 1) else w)
                       for k, w in self.factors]
            factors = [(k, (a, b)) for k, (a, b) in factors]
        except (TypeError, ValueError):
            raise UsageError("product kernel factors must be (kernel, (start, stop)) pairs") from None
        if not factors:
            raise UsageError("product kernel needs at least one factor")
        for k, (a, b) in factors:
            if not isinstance(k, Kernel):
                raise UsageError(f"factor {k!r} is not a kernel spec")
            check_number("coordinate slice bounds must be integers", a, b, integral=True)
            if b <= a or a < 0:   # the tiling's own rule, with the slice it names
                raise UsageError(f"bad coordinate slice {a}:{b}")
        factors = sorted(((k, (int(a), int(b))) for k, (a, b) in factors), key=lambda f: f[1][0])
        cursor = 0
        for _, (a, b) in factors:
            if a != cursor:
                raise UsageError(
                    f"factor slices must tile 0..d; gap or overlap at coordinate {cursor}")
            cursor = b
        object.__setattr__(self, "factors", tuple(factors))

    @property
    def dim(self):
        return self.factors[-1][1][1]

    @property
    def unit_diagonal(self):
        return all(k.unit_diagonal for k, _ in self.factors)

    @property
    def separating(self):
        if all(k.separating == SEPARATES_ALL for k, _ in self.factors):
            return SEPARATES_ALL
        return SEPARATES_NONE

    def _check_dim(self, X):
        if X.shape[1] != self.dim:
            raise DataError(
                f"product kernel expects dimension {self.dim}, got {X.shape[1]}")

    def _pairwise(self, X, Y):
        self._check_dim(X)
        self._check_dim(Y)
        blocks = (k._pairwise(X[:, a:b], Y[:, a:b]) for k, (a, b) in self.factors)
        out = next(blocks)
        for block in blocks:
            out *= block
        return out

    def _diag(self, X):
        self._check_dim(X)
        out = np.ones(X.shape[0])
        for k, (a, b) in self.factors:
            out *= k._diag(X[:, a:b])
        return out

    def _options(self):
        return ["factors=" + "+".join(f"({format_kernel(k, prefix=False)} @{a}:{b})"
                                      for k, (a, b) in self.factors)]

    @classmethod
    def _parse(cls, key, text):
        factors = []
        for part in _split_top(text, "+"):
            pieces = _split_top(_strip_group(part), "@")
            if len(pieces) != 2:
                raise UsageError(f"product factor needs one @start:stop slice: {part!r}")
            spec, slc = pieces[0].strip(), pieces[1].strip()
            try:
                a, b = (int(s) for s in slc.split(":"))
            except ValueError:
                raise UsageError(f"bad slice {slc!r}") from None
            factors.append((parse_kernel(spec), (a, b)))
        return cls(factors)


# The product's constructor under its factory name.
product_kernel = Product


def _kernel(kernel):
    """``kernel`` if it is a kernel spec; anything else is a usage error."""
    if not isinstance(kernel, Kernel):
        raise UsageError(f"kernel must be a kernel spec, got {kernel!r}")
    return kernel


def normalize(kernel):
    """Return a unit-diagonal version of ``kernel``.

    Unit-diagonal kernels are returned unchanged, which also makes the
    operation idempotent by construction.
    """
    if _kernel(kernel).unit_diagonal:
        return kernel
    return Normalized(kernel)


def kernel_eval(kernel, x, y):
    """Evaluate K(x, y) for a single pair of points."""
    x, y = _single_pair(x, y, "kernel_eval", "gram/cross_gram")
    return float(_kernel(kernel)._pairwise(x, y)[0, 0])


def induced_metric(kernel, x, y):
    """Distance sqrt(K(x,x) + K(y,y) - 2 K(x,y)) in the feature space, 0 at x = y."""
    x, y = _single_pair(x, y, "induced_metric", "metric_matrix")
    # a self-distance is zero analytically; evaluating it numerically can
    # leave round-off when diagonal and pairwise paths sum differently
    return float(metric_matrix(kernel, x, None if np.array_equal(x, y) else y)[0, 0])


def metric_matrix(kernel, X, Y=None):
    """Pairwise induced-metric distances between two point sets.

    With one argument the result is the self-distance matrix, exactly
    symmetric with an exactly zero diagonal.
    """
    self_distances = Y is None
    # one buffer on both sides, so the block is exactly symmetric
    X, Y = (_as_points(X, "X"),) * 2 if self_distances else _point_pair(X, Y)
    dx = _kernel(kernel)._diag(X)
    dy = dx if self_distances else kernel._diag(Y)
    sq = dx[:, None] + dy[None, :] - 2.0 * kernel._pairwise(X, Y)
    if self_distances:
        np.fill_diagonal(sq, 0.0)
    tol = 1e-12 * max(1.0, float(np.max(dx)) + float(np.max(dy)))
    if np.any(sq < -tol):
        raise NumericError("negative squared distance beyond round-off tolerance")
    return np.sqrt(np.maximum(sq, 0.0))


def gram(kernel, points):
    """Assemble the Gram matrix K(x_i, x_j) for a sample.

    The result is exactly symmetric, as every kernel builds its self-block
    (see the module docstring), and, for unit-diagonal kernels, has an
    exact unit diagonal.  Positive semidefiniteness holds up to an
    ``EPS_PSD`` slack relative to the matrix 1-norm; it is a property of
    the kernels, not re-verified here (an O(n^3) check).
    """
    pts = _as_points(points)
    if pts.shape[0] > MAX_GRAM_POINTS:
        raise UsageError(
            f"gram matrix for n={pts.shape[0]} exceeds the cap of {MAX_GRAM_POINTS} points")
    M = _kernel(kernel)._pairwise(pts, pts)
    if kernel.unit_diagonal:
        np.fill_diagonal(M, 1.0)
    if not np.all(np.isfinite(M)):
        raise NumericError("gram matrix contains non-finite entries")
    return M


def cross_gram(kernel, X, Y):
    """Rectangular matrix K(x_i, y_j) between two point sets.

    The result is Fortran-ordered (column-major), the layout LAPACK reads:
    it is the transposed view of K(y_j, x_i), so a triangular solve on it
    needs no transposing copy.  The distance kernels give the same bits
    either way; a ``Linear`` inner product may differ in its last bit.
    """
    X, Y = _point_pair(X, Y)
    M = _kernel(kernel)._pairwise(Y, X).T
    if not np.all(np.isfinite(M)):
        raise NumericError("cross-gram matrix contains non-finite entries")
    return M


# ---------------------------------------------------------------------------
# Text form.  Examples:
#   kernel=abel sigma=0.5
#   kernel=linear
#   kernel=normalized inner=(linear)
#   kernel=product factors=(abel sigma=1.0 @0:2)+(l1exp sigma=2.0 @2:3)

_KERNELS = {k.name: k for k in (Abel, L1Exponential, Gaussian, Linear, Normalized, Product)}


def _format_spec(spec, what, table, prefix):
    """``[what=]name key=value ...`` for a spec of a family in ``table``."""
    if not isinstance(spec, _Spec) or spec.name not in table:
        raise UsageError(f"cannot serialize {what} {spec!r}")
    check_flag("prefix", prefix)
    return (f"{what}=" if prefix else "") + " ".join([spec.name, *spec._options()])


def format_kernel(kernel, prefix=True):
    """Serialize a kernel spec to its text form."""
    return _format_spec(kernel, "kernel", _KERNELS, prefix)


def _split_top(text, sep=None):
    """Split on ``sep`` (by default any whitespace) at parenthesis depth zero."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise UsageError(f"unbalanced parentheses in {text!r}")
        elif depth == 0 and (ch.isspace() if sep is None else ch == sep):
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise UsageError(f"unbalanced parentheses in {text!r}")
    parts.append(text[start:])
    return parts


def _parse_kv(tokens, allowed, what):
    """``key=value`` tokens as a dict; an unknown or repeated key is a usage error."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise UsageError(f"expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key not in allowed:
            raise UsageError(f"unknown {what} option {key!r}")
        if key in out:
            raise UsageError(f"repeated {what} option {key!r}")
        out[key] = val
    return out


def _parse_spec(text, what, table):
    """Parse ``[what=]name key=value ...`` into a spec of a family in ``table``.

    The leading ``what=`` is optional so the same parser serves model files
    and bare command-line values.  A family with keys takes exactly one.
    """
    if not isinstance(text, str):
        raise UsageError(f"{what} spec must be text, got {text!r}")
    body = text.strip()
    if body.startswith(what + "="):
        body = body[len(what) + 1:]
    tokens = [t for t in _split_top(body) if t]
    if not tokens:
        raise UsageError(f"empty {what} spec")
    name, rest = tokens[0], tokens[1:]
    family = table.get(name)
    if family is None:
        raise UsageError(f"unknown {what} {name!r}")
    if not family.keys:
        if rest:
            raise UsageError(f"{what} {name!r} takes no options")
        return family()
    options = _parse_kv(rest, family.keys, what)
    choices = " or ".join(key + "=" for key in family.keys)
    if not options:
        raise UsageError(f"{what} {name!r} needs {choices}")
    if len(options) > 1:
        raise UsageError(f"{what} {name!r} takes only one of {choices}")
    return family._parse(*options.popitem())


def parse_kernel(text):
    """Parse the text form produced by :func:`format_kernel`."""
    return _parse_spec(text, "kernel", _KERNELS)


def _strip_group(text):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise UsageError(f"expected a parenthesized group, got {text!r}")
    return text[1:-1]
