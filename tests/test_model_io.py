import functools
import os
import re
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import setlearn.model_io as model_io
from setlearn import (Abel, DataError, KpcaTruncation, Landweber,
                      SpectralCutoff, SpectralDecomposition, Tikhonov, UsageError,
                      decompose, fit, get_task, gram, load_model, sample, save_model,
                      score_batch, width_heuristic, write_table)
from setlearn.cli import main

from _reference import text_payload


def _random_model(seed=0, filt=None, tau=0.25):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(17, 3))
    return fit(X, Abel(0.8), filt or Tikhonov(0.01), tau=tau)


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_round_trip_scores(tmp_path, fmt):
    rng = np.random.default_rng(1)
    T = rng.normal(size=(9, 3))
    m = _random_model()
    path = tmp_path / f"model.{fmt}"
    save_model(m, path, fmt=fmt)
    loaded = load_model(path)
    assert loaded.kernel == m.kernel
    assert loaded.filter == m.filter
    assert loaded.tau == m.tau
    assert loaded.algorithm == m.algorithm
    drift = np.max(np.abs(score_batch(loaded, T) - score_batch(m, T)))
    assert drift <= 1e-12


def test_binary_round_trip_is_exact(tmp_path):
    m = _random_model(seed=2)
    path = tmp_path / "model.bin"
    save_model(m, path, fmt="binary")
    loaded = load_model(path)
    npt.assert_array_equal(loaded.points, m.points)


@pytest.mark.parametrize("filt", [SpectralCutoff(0.05), Landweber(35),
                                  KpcaTruncation(lam=0.02)])
def test_round_trip_all_filters(tmp_path, filt):
    m = _random_model(seed=3, filt=filt)
    path = tmp_path / "model.txt"
    save_model(m, path)
    loaded = load_model(path)
    assert loaded.filter == filt
    rng = np.random.default_rng(4)
    T = rng.normal(size=(5, 3))
    assert np.max(np.abs(score_batch(loaded, T) - score_batch(m, T))) <= 1e-12


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_round_trip_with_decomposition(tmp_path, fmt):
    m = _random_model(seed=5)
    D = decompose(gram(m.kernel, m.points))
    path = tmp_path / "model.full"
    save_model(m, path, fmt=fmt, include_decomposition=True)
    loaded = load_model(path)
    D2 = loaded.decomposition
    npt.assert_allclose(D2.eigenvalues, D.eigenvalues, atol=1e-15)
    npt.assert_allclose(D2.eigenvectors, D.eigenvectors, atol=1e-15)


def _doubled_eigenvalues(s, V):
    return 2.0 * s, V


def _swapped_leading_eigenvalues(s, V):
    # keeps the trace, breaks the eigen-residuals
    s = s.copy()
    s[[0, 1]] = s[[1, 0]]
    return s, V


def _scaled_leading_eigenvector(s, V):
    # keeps the residual at zero, breaks orthonormality
    V = V.copy()
    V[:, 0] *= 2.0
    return s, V


# Edits past the 8th pair, each refused by the probe check of every pair.

def _swapped_trailing_eigenvectors(s, V):
    V = V.copy()
    V[:, [20, 21]] = V[:, [21, 20]]
    return s, V


def _half_negated_trailing_eigenvector(s, V):
    V = V.copy()
    V[:len(V) // 2, 30] *= -1.0
    return s, V


def _rotated_trailing_eigenvectors(s, V):
    # orthonormal still, but no longer eigenvectors
    Q = np.linalg.qr(np.random.default_rng(1).normal(size=(len(V) - 10,) * 2))[0]
    V = V.copy()
    V[:, 10:] = V[:, 10:] @ Q
    return s, V


def _nudged_last_eigenvector(s, V):
    V = V.copy()
    V[0, -1] += 1e-6
    return s, V


@functools.cache
def _circle_model():
    X = sample(get_task("circle"), 200, seed=0)
    return fit(X, Abel(width_heuristic(X)), Tikhonov(1e-3), algorithm="spectral")


@pytest.mark.parametrize("fmt", ["text", "binary"])
@pytest.mark.parametrize("tamper", [
    _doubled_eigenvalues, _swapped_leading_eigenvalues, _scaled_leading_eigenvector,
    _swapped_trailing_eigenvectors, _half_negated_trailing_eigenvector,
    _rotated_trailing_eigenvectors, _nudged_last_eigenvector])
def test_load_rejects_tampered_decomposition(tmp_path, fmt, tamper):
    m = _circle_model()
    D = m.decomposition
    bad = replace(m, eigenpairs=SpectralDecomposition(*tamper(D.eigenvalues, D.eigenvectors)))
    path = tmp_path / "model.full"
    save_model(bad, path, fmt=fmt, include_decomposition=True)
    with pytest.raises(DataError):
        load_model(path)


def test_save_is_deterministic(tmp_path):
    m = _random_model(seed=6)
    a, b = tmp_path / "a", tmp_path / "b"
    save_model(m, a)
    save_model(m, b)
    assert a.read_bytes() == b.read_bytes()


# A model file is overwritten in place: never opened with O_TRUNC, always cut
# to the bytes written.

@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_save_over_a_longer_file_writes_a_fresh_model(tmp_path, fmt):
    small = _random_model(seed=7)
    path, fresh = tmp_path / "m", tmp_path / "fresh"
    save_model(_random_model(seed=8), path, fmt=fmt, include_decomposition=True)
    save_model(small, path, fmt=fmt)
    save_model(small, fresh, fmt=fmt)
    assert path.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_save_keeps_a_symlink_inode_and_mode(tmp_path, fmt):
    m = _random_model(seed=7)
    real, link, fresh = tmp_path / "real", tmp_path / "link", tmp_path / "fresh"
    save_model(m, real, fmt=fmt, include_decomposition=True)
    real.chmod(0o600)
    link.symlink_to(real)
    inode = real.stat().st_ino
    save_model(m, link, fmt=fmt)
    save_model(m, fresh, fmt=fmt)
    assert link.is_symlink()
    assert real.stat().st_ino == inode and real.stat().st_mode & 0o777 == 0o600
    assert real.read_bytes() == fresh.read_bytes()


def test_save_that_fails_leaves_the_bytes_written_before(tmp_path, monkeypatch):
    """A save that raises part-way leaves a prefix of the new bytes, cut to
    its length, not the new bytes followed by the old file's tail."""
    m = _random_model(seed=7)
    path = tmp_path / "m"
    save_model(m, path, include_decomposition=True)
    old = path.read_bytes()
    text_lines = model_io._text_lines

    def first_chunk_then_fail(block):
        yield next(text_lines(block))
        raise RuntimeError("disk gone")

    monkeypatch.setattr(model_io, "_text_lines", first_chunk_then_fail)
    with pytest.raises(RuntimeError, match="disk gone"):
        save_model(m, path, include_decomposition=True)
    head = old[:old.index(b"data:\n") + len(b"data:\n")]
    assert path.read_bytes() == head + next(text_lines(m.points))
    assert len(path.read_bytes()) < len(old)


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk"
    path.write_text("not a model\n")
    with pytest.raises(DataError):
        load_model(path)


def test_load_rejects_truncated_text(tmp_path):
    m = _random_model(seed=7)
    path = tmp_path / "model.txt"
    save_model(m, path)
    lines = path.read_text().splitlines()
    (tmp_path / "cut.txt").write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(DataError, match="expected 17 data lines, found 14$"):
        load_model(tmp_path / "cut.txt")


def test_load_rejects_truncated_binary(tmp_path):
    m = _random_model(seed=8)
    path = tmp_path / "model.bin"
    save_model(m, path, fmt="binary")
    raw = path.read_bytes()
    for cut in (16, 8):
        (tmp_path / "cut.bin").write_bytes(raw[:-cut])
        with pytest.raises(DataError, match=f"binary payload is {8 * 51 - cut} bytes, "
                                            f"expected {8 * 51}$"):
            load_model(tmp_path / "cut.bin")


def _edit_text_line(path, k, edit):
    """Rewrite the k-th payload line of a text model through ``edit(cells)``."""
    head, payload = path.read_bytes().split(b"data:\n")
    lines = payload.splitlines()
    lines[k] = b" ".join(edit(lines[k].split()))
    path.write_bytes(head + b"data:\n" + b"\n".join(lines) + b"\n")


@pytest.mark.parametrize("k, width", [(0, 3), (16, 3), (17, 17), (18, 17), (34, 17)])
@pytest.mark.parametrize("change", [-1, 1])
def test_load_names_a_text_line_of_the_wrong_width(tmp_path, k, width, change):
    # lines 0-16 hold points (d=3), 17 the eigenvalues and 18-34 eigenvector rows (n=17)
    path = tmp_path / "model.txt"
    save_model(_random_model(seed=15), path, include_decomposition=True)
    _edit_text_line(path, k, lambda cells: cells[:-1] if change < 0 else cells + [b"0.5"])
    with pytest.raises(DataError, match=f"data line {k + 1} holds {width + change} values, "
                                        f"expected {width}$"):
        load_model(path)


def test_load_names_a_non_numeric_text_line(tmp_path):
    path = tmp_path / "model.txt"
    save_model(_random_model(seed=16), path, include_decomposition=True)
    _edit_text_line(path, 20, lambda cells: cells[:4] + [b"0.5x"] + cells[5:])
    with pytest.raises(DataError, match="non-numeric value in data line 21$"):
        load_model(path)


@pytest.mark.parametrize("fmt, message", [
    ("text", "expected 1000000000000 data lines, found 17$"),
    ("binary", "binary payload is 408 bytes, expected 24000000000000$")])
def test_load_refuses_a_forged_count_before_allocating(tmp_path, fmt, message):
    path = tmp_path / "model"
    save_model(_random_model(seed=17), path, fmt=fmt)
    path.write_bytes(path.read_bytes().replace(b"\nn=17\n", b"\nn=%d\n" % 10 ** 12))
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=message):
            load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_text_and_binary_decompositions_load_to_the_same_bits(tmp_path):
    X = np.random.default_rng(18).normal(size=(300, 2))
    m = fit(X, Abel(0.5), Tikhonov(0.01))
    loaded = []
    for fmt in ("text", "binary"):
        path = tmp_path / f"model.{fmt}"
        save_model(m, path, fmt=fmt, include_decomposition=True)
        loaded.append(load_model(path))
    text, binary = loaded
    # the text payload parsed one value at a time with float()
    lines = (tmp_path / "model.text").read_text().split("data:\n")[1].splitlines()
    rows = [[float(t) for t in line.split()] for line in lines]
    expected = (np.array(rows[:300]), np.array(rows[300]), np.array(rows[301:]))
    for model in (text, binary):
        got = (model.points, model.decomposition.eigenvalues, model.decomposition.eigenvectors)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)


def test_load_rejects_corrupt_header(tmp_path):
    m = _random_model(seed=9)
    path = tmp_path / "model.txt"
    save_model(m, path)
    text = path.read_text().replace("filter=tikhonov", "filter=bogus")
    (tmp_path / "bad.txt").write_text(text)
    with pytest.raises(DataError):
        load_model(tmp_path / "bad.txt")


@pytest.mark.parametrize("line, message", [
    (b"tau=0.9", "repeated header option 'tau'"),
    (b"margin=0.9", "unknown header option 'margin'"),
])
def test_load_and_score_refuse_a_repeated_or_unknown_header_key(tmp_path, capsys, line,
                                                                message):
    """A second ``tau=`` is refused, not read as the margin to apply."""
    path = tmp_path / "model.txt"
    save_model(_random_model(seed=19, tau=0.1), path)
    path.write_bytes(path.read_bytes().replace(b"\nn=", b"\n" + line + b"\nn="))
    with pytest.raises(DataError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: {message}"
    data = tmp_path / "x.csv"
    write_table(data, "probe", [], ["x0", "x1", "x2"], [(0.1, 0.2, 0.3)], timestamp=False)
    assert main(["score", "--model", str(path), "--data", str(data), "--header",
                 "--out", str(tmp_path / "s.csv")]) == 3
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_text_payload_uses_full_precision(tmp_path):
    # 17 significant digits round-trip float64 exactly
    m = _random_model(seed=10)
    path = tmp_path / "model.txt"
    save_model(m, path)
    npt.assert_array_equal(load_model(path).points, m.points)


def test_load_rejects_non_ascii_text_payload(tmp_path):
    path = tmp_path / "model.txt"
    save_model(_random_model(seed=11), path)
    head, payload = path.read_bytes().split(b"data:\n")
    path.write_bytes(head + b"data:\n" + b"\xe9" + payload)
    with pytest.raises(DataError, match="data section is not ascii"):
        load_model(path)


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_load_rejects_negative_header_counts(tmp_path, fmt):
    path = tmp_path / "model"
    save_model(_random_model(seed=12), path, fmt=fmt)
    head = path.read_bytes().split(b"data:\n")[0]
    head = head.replace(b"\nn=17\n", b"\nn=-1\n").replace(b"\nd=3\n", b"\nd=-1\n")
    path.write_bytes(head + b"data:\n" + bytes(8))
    with pytest.raises(DataError, match="n and d must be nonnegative"):
        load_model(path)


@pytest.mark.parametrize("decomposition", [False, True])
def test_text_payload_matches_value_by_value_formatting(tmp_path, decomposition):
    rng = np.random.default_rng(14)
    X = rng.normal(size=(40, 3)) * np.array([1e-300, 1.0, 1e300]) ** 0.5
    m = fit(X, Abel(0.8), Tikhonov(0.01))
    path = tmp_path / "m.txt"
    save_model(m, path, include_decomposition=decomposition)
    payload = path.read_bytes().split(b"data:\n", 1)[1]
    D = decompose(gram(m.kernel, m.points)) if decomposition else None
    assert payload == text_payload(m, D)


def test_eigenvector_entry_beyond_one_is_refused(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(_with_eigenvector_entry(1e300))
    with pytest.raises(DataError, match="stored eigenvectors are not orthonormal"):
        load_model(path)


@pytest.mark.parametrize("value, message", [
    (-1e300, "stored eigenvectors are not orthonormal"),
    (-1.0 - 1e-6, "stored eigenvectors are not orthonormal"),
    (np.nan, "non-finite"), (-np.inf, "non-finite"), (np.inf, "non-finite")])
def test_eigenvector_entry_out_of_range_is_refused(tmp_path, value, message):
    """The range and finiteness of V are read off V.min() and V.max(), which
    propagate nan; an entry below -1 is refused as one above 1 is."""
    path = tmp_path / "m.bin"
    path.write_bytes(_with_eigenvector_entry(value))
    with pytest.raises(DataError, match=message):
        load_model(path)


# ---------------------------------------------------------------------------
# Mutated model files: each loads as a working model or raises DataError, and
# the CLI's score on it exits 0 or 3.


@functools.cache
def _model_bytes(fmt, decomposition):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m")
        save_model(_random_model(seed=13), path, fmt=fmt, include_decomposition=decomposition)
        with open(path, "rb") as fh:
            return fh.read()


def _with_eigenvector_entry(value):
    """The binary model with its decomposition, V[0, 0] replaced by ``value``."""
    blob = _model_bytes("binary", True)
    i = blob.index(b"data:\n") + len(b"data:\n") + 8 * (17 * 3 + 17)
    return blob[:i] + np.float64(value).tobytes() + blob[i + 8:]


_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
_HEADER = (b"# support model v1\nformat=%s\nkernel=abel sigma=0.8\nfilter=tikhonov lambda=0.01\n"
           b"algorithm=cholesky\ntau=0.25\nn=%d\nd=%d\ndecomposition=none\ndata:\n")


@st.composite
def _mutated_models(draw):
    blob = _model_bytes(draw(st.sampled_from(["text", "binary"])), draw(st.booleans()))
    head, payload = blob.split(b"data:\n")
    binary = b"format=binary" in head
    kind = draw(st.sampled_from(["truncate", "flip", "count", "non-finite", "dims"]))
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(blob) - 1))
        return blob[:i] + bytes([blob[i] ^ (1 << draw(st.integers(0, 7)))]) + blob[i + 1:]
    if kind == "count":   # each count kept, negated or replaced
        for key, value in ((b"n", 17), (b"d", 3)):
            value = draw(st.sampled_from([value, -value]) | st.integers(-3, 40))
            head = re.sub(rb"(?m)^" + key + rb"=\d+$", b"%s=%d" % (key, value), head)
    elif kind == "non-finite" and binary:
        i = 8 * draw(st.integers(0, len(payload) // 8 - 1))
        payload = payload[:i] + np.float64(draw(_NON_FINITE)).tobytes() + payload[i + 8:]
    elif binary:   # dims: the same payload read as one point, or as 1-d points
        n = draw(st.sampled_from([1, 17 * 3]))
        head = re.sub(rb"(?m)^n=\d+$", b"n=%d" % n, head)
        head = re.sub(rb"(?m)^d=\d+$", b"d=%d" % (17 * 3 // n), head)
    else:          # non-finite or dims on a text line
        lines = payload.splitlines()
        i = draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split()
        if kind == "non-finite":
            cells[draw(st.integers(0, len(cells) - 1))] = repr(draw(_NON_FINITE)).encode()
        else:
            cells = cells[:-1] if draw(st.booleans()) else cells + [b"0.5"]
        lines[i] = b" ".join(cells)
        payload = b"\n".join(lines) + b"\n"
    return head + b"data:\n" + payload


@settings(max_examples=300, deadline=None)
@given(blob=_mutated_models())
@example(blob=_HEADER % (b"binary", -1, -1) + bytes(8))
@example(blob=_HEADER % (b"text", 1, 3) + b"\xb1.8 -3.1 0.96\n")
@example(blob=_with_eigenvector_entry(1e300))
def test_mutated_model_file_loads_or_raises_data_error(blob):
    with tempfile.TemporaryDirectory() as d:
        path, data = os.path.join(d, "m"), os.path.join(d, "x.csv")
        with open(path, "wb") as fh:
            fh.write(blob)
        write_table(data, "probe", [], ["x0", "x1", "x2"], [(0.1, 0.2, 0.3), (1, 2, 3)],
                    timestamp=False)
        try:
            model = load_model(path)
        except (DataError, UsageError):
            model = None
        else:
            scores = score_batch(model, model.points)
            assert np.all((scores >= 0.0) & (scores <= 1.0))
        rc = main(["score", "--model", path, "--data", data, "--header",
                   "--out", os.path.join(d, "s.csv"), "--no-timestamp"])
        assert rc == (3 if model is None or model.dim != 3 else 0)


@pytest.mark.parametrize("blob, message", [
    (_HEADER % (b"text", 0, 3), "points must be a nonempty 2-d array"),
    (_HEADER % (b"binary", 0, 3), "points must be a nonempty 2-d array"),
    (_HEADER % (b"text", 1, 3) + b"0.1 nan 0.3\n", "points contains non-finite coordinates"),
    (_HEADER.replace(b"=none", b"=eigh") % (b"text", 1, 3) + b"0.1 nan 0.3\n1\n1\n",
     "points contains non-finite coordinates"),
], ids=["text-n0", "binary-n0", "text-nan", "text-nan-decomposition"])
def test_load_names_the_file_of_points_the_model_refuses(tmp_path, capsys, blob, message):
    """A point the model refuses is a fault of the file: the error names it once."""
    path = tmp_path / "m"
    path.write_bytes(blob)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}"):
        load_model(path)
    assert main(["score", "--model", str(path), "--data", str(path),
                 "--out", str(tmp_path / "s.csv")]) == 3
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
