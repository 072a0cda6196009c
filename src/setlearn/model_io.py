"""Model persistence.

A model file is an ascii header followed by a ``data:`` line and the
payload.  The header is key=value, one per line; lines starting with
``#`` are comments.  The ``format=`` key selects the payload encoding:

``text``
    one point per line, coordinates printed with %.17g (lossless for
    float64); an optional stored decomposition follows as one line of
    eigenvalues and then one line per eigenvector-matrix row, each block
    rendered with one row format, one ``%`` per few thousand values.
``binary``
    raw little-endian float64, C order: the points, then optionally the
    eigenvalues and the eigenvector matrix.

Loading rebuilds the model through the normal fit path, so a round trip
reproduces scores to better than 1e-12 (exactly, in fact, for the text
format since %.17g round-trips every double).  A stored decomposition is
checked against the rebuilt Gram matrix before it is trusted.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, UsageError
from .estimator import _fit, fit
from .filters import (EIG_SLACK, SpectralDecomposition, decompose, format_filter,
                      parse_filter)
from .kernels import format_kernel, gram, parse_kernel

__all__ = ["save_model", "load_model"]

_MAGIC = "# support model v1"
_MARKER = b"data:\n"

# Leading eigenpairs whose residual and orthonormality a load checks.
_CHECKED_PAIRS = 8


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
    if fmt not in ("text", "binary"):
        raise UsageError(f"format must be 'text' or 'binary', got {fmt!r}")
    decomp = (model.decomposition or decompose(model.gram)) if include_decomposition else None
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
                fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def _ascii(data, path, what):
    try:
        return data.decode("ascii")
    except UnicodeDecodeError:
        raise DataError(f"{path}: {what} is not ascii") from None


def _parse_header(blob, path):
    idx = blob.find(_MARKER)
    if idx < 0 or (idx > 0 and blob[idx - 1:idx] != b"\n"):
        raise DataError(f"{path}: not a model file (missing data: section)")
    head = _ascii(blob[:idx], path, "header")
    fields = {}
    for line in head.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}: bad header line {line!r}")
        key, val = line.split("=", 1)
        fields[key] = val
    missing = {"format", "kernel", "filter", "algorithm", "tau", "n", "d",
               "decomposition"} - fields.keys()
    if missing:
        raise DataError(f"{path}: header is missing {sorted(missing)}")
    return fields, blob[idx + len(_MARKER):]


def _text_rows(payload, path):
    rows = []
    for lineno, line in enumerate(_ascii(payload, path, "data section").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(t) for t in line.split()])
        except ValueError:
            raise DataError(f"{path}: non-numeric value in data line {lineno}") from None
    return rows


def load_model(path):
    """Read a model file written by :func:`save_model`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    fields, payload = _parse_header(blob, path)
    fmt = fields["format"]
    if fmt not in ("text", "binary"):
        raise DataError(f"{path}: unknown format {fields['format']!r}")
    try:
        n, d = int(fields["n"]), int(fields["d"])
        tau = float(fields["tau"])
    except ValueError:
        raise DataError(f"{path}: bad n/d/tau header values") from None
    if n < 0 or d < 0:
        raise DataError(f"{path}: n and d must be nonnegative, got n={n} d={d}")
    try:
        kernel = parse_kernel(fields["kernel"])
        filt = parse_filter(fields["filter"])
    except UsageError as exc:
        raise DataError(f"{path}: {exc}") from None
    with_decomp = fields["decomposition"] == "eigh"
    if not with_decomp and fields["decomposition"] != "none":
        raise DataError(f"{path}: unknown decomposition {fields['decomposition']!r}")

    if fmt == "text":
        rows = _text_rows(payload, path)
        expect = n + (1 + n if with_decomp else 0)
        if len(rows) != expect:
            raise DataError(f"{path}: expected {expect} data lines, found {len(rows)}")
        points = rows[:n]
        if any(len(r) != d for r in points):
            raise DataError(f"{path}: point rows must have {d} columns")
        points = np.asarray(points, dtype=float).reshape(n, d)
        if with_decomp:
            eigenvalues = np.asarray(rows[n], dtype=float)
            vec_rows = rows[n + 1:]
            if eigenvalues.shape != (n,) or any(len(r) != n for r in vec_rows):
                raise DataError(f"{path}: stored decomposition has wrong shape")
            eigenvectors = np.asarray(vec_rows, dtype=float).reshape(n, n)
    else:
        expect = n * d + (n + n * n if with_decomp else 0)
        if len(payload) != 8 * expect:
            raise DataError(
                f"{path}: binary payload is {len(payload)} bytes, expected {8 * expect}")
        flat = np.frombuffer(payload, dtype="<f8").astype(float)
        points = flat[:n * d].reshape(n, d)
        if with_decomp:
            eigenvalues = flat[n * d:n * d + n].copy()
            eigenvectors = flat[n * d + n:].reshape(n, n).copy()

    try:
        if not with_decomp:
            return fit(points, kernel, filt, algorithm=fields["algorithm"], tau=tau)
        G = gram(kernel, points)
        _check_decomposition(eigenvalues, eigenvectors, G, path)
        return _fit(points, kernel, filt, fields["algorithm"], tau, G,
                    SpectralDecomposition(eigenvalues, eigenvectors))
    except UsageError as exc:
        raise DataError(f"{path}: {exc}") from None


def _check_decomposition(s, V, K, path):
    """Reject stored eigenpairs that are not those of K_n/n.

    O(n^2 k) for k leading pairs: the eigenvalues must lie in [0, 1] and sum
    to trace(K_n/n), and the leading pairs must have small eigen-residuals
    and be orthonormal.
    """
    n = s.shape[0]
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(V))):
        raise DataError(f"{path}: stored decomposition has non-finite values")
    if s.min() < 0.0 or s.max() > 1.0:
        raise DataError(f"{path}: stored eigenvalues lie outside [0, 1]")
    if abs(s.sum() - np.trace(K) / n) > EIG_SLACK * n:
        raise DataError(f"{path}: stored eigenvalues do not sum to trace(K_n/n)")
    # Orthonormal columns have entries in [-1, 1]; larger ones could overflow below.
    if np.any(np.abs(V) > 1.0 + EIG_SLACK):
        raise DataError(f"{path}: stored eigenvectors are not orthonormal")
    k = min(n, _CHECKED_PAIRS)
    Vk = V[:, :k]
    residual = np.linalg.norm(K @ Vk / n - Vk * s[:k], axis=0).max()
    if residual > EIG_SLACK:
        raise DataError(
            f"{path}: stored eigenpairs do not match the Gram matrix "
            f"(residual {residual:.3e})")
    if np.abs(Vk.T @ Vk - np.eye(k)).max() > EIG_SLACK:
        raise DataError(f"{path}: stored eigenvectors are not orthonormal")
