"""Model persistence.

A model file is an ascii header followed by a ``data:`` line and the
payload.  The header is key=value, one per line, each key exactly once;
lines starting with ``#`` are comments.  The ``format=`` key selects the
payload encoding:

``text``
    one point per line, coordinates printed with %.17g (lossless for
    float64); an optional stored decomposition follows as one line of
    eigenvalues and then one line per eigenvector-matrix row, each block
    rendered with one row format, one ``%`` per few thousand values.
``binary``
    raw little-endian float64, C order: the points, then optionally the
    eigenvalues and the eigenvector matrix.

Loading decodes either payload to one float64 vector, slices it once and
rebuilds the model with one :func:`.fit` call, so a round trip reproduces
scores to better than 1e-12 (exactly, in fact, for the text format since
%.17g round-trips every double).  A stored decomposition is checked against
the rebuilt Gram matrix before it seeds the model, which otherwise solves
on first use.  A binary payload is decoded straight from the file's bytes,
which are released before the check builds its Gram, so a binary load with
a stored decomposition peaks at about 2 n^2 doubles: the eigenvectors and
that Gram.  Text loads at the pace of string-to-double conversion (~0.5 s
per million values): store a decomposition as binary.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dgemm

from .errors import DataError, UsageError, check_flag, check_path
from .estimator import _model, fit
from .filters import EIG_SLACK, SpectralDecomposition, format_filter, parse_filter
from .kernels import _parse_kv, format_kernel, gram, parse_kernel

__all__ = ["save_model", "load_model"]

_MAGIC = "# support model v1"
_MARKER = b"data:\n"

# The keys of a model header, each given exactly once.
_HEADER_KEYS = {"format", "kernel", "filter", "algorithm", "tau", "n", "d", "decomposition"}


# Values a text payload renders with one %; bounds the Python floats held at once.
_CHUNK_VALUES = 1 << 16


def _text_lines(block):
    """The rows of a 2-d block as ascii lines of %.17g values."""
    line = " ".join(["%.17g"] * block.shape[1]) + "\n"
    step = _CHUNK_VALUES // max(block.shape[1], 1) + 1
    for part in (block[i:i + step] for i in range(0, len(block), step)):
        yield ((line * len(part)) % tuple(part.ravel().tolist())).encode("ascii")


def save_model(model, path, fmt="text", include_decomposition=False):
    """Write a model to ``path`` in the text or binary container."""
    check_path(path)
    _model(model)
    if not (isinstance(fmt, str) and fmt in ("text", "binary")):
        raise UsageError(f"format must be 'text' or 'binary', got {fmt!r}")
    check_flag("include_decomposition", include_decomposition)
    decomp = model.decomposition if include_decomposition else None
    head = [
        _MAGIC,
        f"format={fmt}",
        f"kernel={format_kernel(model.kernel, prefix=False)}",
        f"filter={format_filter(model.filter, prefix=False)}",
        f"algorithm={model.algorithm}",
        f"tau={model.tau!r}",
        f"n={model.n}",
        f"d={model.dim}",
        f"decomposition={'eigh' if decomp is not None else 'none'}",
        "data:",
    ]
    blocks = [model.points]
    if decomp is not None:
        blocks += [decomp.eigenvalues[None, :], decomp.eigenvectors]
    with open(path, "wb") as fh:
        fh.write(("\n".join(head) + "\n").encode("ascii"))
        for block in blocks:
            if fmt == "text":
                fh.writelines(_text_lines(block))
            else:
                np.ascontiguousarray(block, dtype="<f8").tofile(fh)


def _ascii(data, what):
    try:
        return data.decode("ascii")
    except UnicodeDecodeError:
        raise DataError(f"{what} is not ascii") from None


def _parse_header(blob):
    idx = blob.find(_MARKER)
    if idx < 0 or (idx > 0 and blob[idx - 1:idx] != b"\n"):
        raise DataError("not a model file (missing data: section)")
    head = _ascii(blob[:idx], "header")
    lines = [line.strip() for line in head.splitlines()]
    # an unknown, repeated or malformed key is refused
    fields = _parse_kv([line for line in lines if line and not line.startswith("#")],
                       _HEADER_KEYS, "header")
    missing = _HEADER_KEYS - fields.keys()
    if missing:
        raise DataError(f"header is missing {sorted(missing)}")
    return fields, idx + len(_MARKER)


def _payload_values(blob, start, fmt, n, d, with_decomp):
    """The payload, ``blob`` from byte ``start`` on, as one float64 vector:
    points (n*d), eigenvalues (n), eigenvectors (n*n).

    Header counts are checked against the payload (its byte length, or its line
    count and then each line's width) before anything is sized from them.
    """
    if fmt == "binary":
        size, expect = len(blob) - start, 8 * (n * d + (n + n * n if with_decomp else 0))
        if size != expect:
            raise DataError(f"binary payload is {size} bytes, expected {expect}")
        # Decoded from the file's bytes, unsliced, into one aligned array: a view
        # at the header's odd offset is unaligned, and f2py copies such an array.
        flat = np.empty(expect // 8)
        flat[:] = np.frombuffer(blob, dtype="<f8", offset=start)
        return flat
    text = _ascii(blob[start:], "data section").splitlines()
    lines = [(lineno, line) for lineno, line in enumerate(text, start=1) if line.strip()]
    expect = n + (1 + n if with_decomp else 0)
    if len(lines) != expect:
        raise DataError(f"expected {expect} data lines, found {len(lines)}")
    values = []
    for k, (lineno, line) in enumerate(lines):
        tokens = line.split()
        width = d if k < n else n   # a point line, then the decomposition lines
        if len(tokens) != width:
            raise DataError(f"data line {lineno} holds {len(tokens)} values, expected {width}")
        try:
            values += map(float, tokens)
        except ValueError:
            raise DataError(f"non-numeric value in data line {lineno}") from None
    return np.array(values, dtype=float)


def load_model(path):
    """Read a model file written by :func:`save_model`."""
    check_path(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    try:   # every fault of the file, a spec, field or point the model refuses too
        fields, start = _parse_header(blob)
        fmt = fields["format"]
        if fmt not in ("text", "binary"):
            raise DataError(f"unknown format {fields['format']!r}")
        try:
            n, d = int(fields["n"]), int(fields["d"])
            tau = float(fields["tau"])
        except ValueError:
            raise DataError("bad n/d/tau header values") from None
        if n < 0 or d < 0:
            raise DataError(f"n and d must be nonnegative, got n={n} d={d}")
        kernel = parse_kernel(fields["kernel"])
        filt = parse_filter(fields["filter"])
        with_decomp = fields["decomposition"] == "eigh"
        if not with_decomp and fields["decomposition"] != "none":
            raise DataError(f"unknown decomposition {fields['decomposition']!r}")
        flat = _payload_values(blob, start, fmt, n, d, with_decomp)
        del blob   # the file's bytes go before the check builds its Gram
        points, eigenpairs = flat[:n * d].reshape(n, d), None
        if with_decomp:
            s, V = flat[n * d:n * d + n], flat[n * d + n:].reshape(n, n)
            _check_decomposition(s, V, gram(kernel, points))
            eigenpairs = SpectralDecomposition(s, V)
        return fit(points, kernel, filt, fields["algorithm"], tau, eigenpairs)
    except (UsageError, DataError) as exc:
        raise DataError(f"{path}: {exc}") from None


def _check_decomposition(s, V, K):
    """Reject stored eigenpairs that are not those of K_n/n.

    The eigenvalues must lie in [0, 1] and sum to trace(K_n/n), and
    |V| <= 1.  Freivalds' check then covers every pair in O(n^2), with no
    n x n temporary: for a fixed-seed 4-column Gaussian Z, both
    ||K V Z/n - V diag(s) Z|| and ||V'(V Z) - Z||, over ||Z||, must lie
    within ``EIG_SLACK``.  The products run on scipy's ``dgemm`` (see
    :mod:`.estimator`), reading the C-ordered V as its Fortran transpose;
    K is exactly symmetric by construction, so K' is K.
    """
    n = s.shape[0]
    # min and max propagate nan and inf without an n x n mask.
    lo, hi = V.min(), V.max()
    if not (np.all(np.isfinite(s)) and np.isfinite(lo) and np.isfinite(hi)):
        raise DataError("stored decomposition has non-finite values")
    if s.min() < 0.0 or s.max() > 1.0:
        raise DataError("stored eigenvalues lie outside [0, 1]")
    if abs(s.sum() - np.trace(K) / n) > EIG_SLACK * n:
        raise DataError("stored eigenvalues do not sum to trace(K_n/n)")
    # Orthonormal columns have entries in [-1, 1]; larger ones could overflow below.
    if max(-lo, hi) > 1.0 + EIG_SLACK:
        raise DataError("stored eigenvectors are not orthonormal")
    Z = np.random.default_rng(0).standard_normal((n, 4))
    size = np.linalg.norm(Z)
    VZ, VSZ = np.hsplit(dgemm(1.0, V.T, np.hstack([Z, s[:, None] * Z]), trans_a=1), 2)
    residual = np.linalg.norm(dgemm(1.0 / n, K.T, VZ) - VSZ) / size
    if residual > EIG_SLACK:
        raise DataError(
            "stored eigenpairs do not match the Gram matrix "
            f"(residual {residual:.3e})")
    if np.linalg.norm(dgemm(1.0, V.T, VZ) - Z) / size > EIG_SLACK:
        raise DataError("stored eigenvectors are not orthonormal")
