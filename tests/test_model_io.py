from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from setlearn import (Abel, DataError, KpcaTruncation, Landweber,
                      SpectralCutoff, SpectralDecomposition, Tikhonov, decompose,
                      fit, load_model, save_model, score_batch)


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
    D = decompose(m.gram)
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


@pytest.mark.parametrize("fmt", ["text", "binary"])
@pytest.mark.parametrize("tamper", [_doubled_eigenvalues, _swapped_leading_eigenvalues,
                                    _scaled_leading_eigenvector])
def test_load_rejects_tampered_decomposition(tmp_path, fmt, tamper):
    m = _random_model(seed=11)
    D = decompose(m.gram)
    bad = replace(m, decomposition=SpectralDecomposition(*tamper(D.eigenvalues, D.eigenvectors)))
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
    with pytest.raises(DataError):
        load_model(tmp_path / "cut.txt")


def test_load_rejects_truncated_binary(tmp_path):
    m = _random_model(seed=8)
    path = tmp_path / "model.bin"
    save_model(m, path, fmt="binary")
    raw = path.read_bytes()
    (tmp_path / "cut.bin").write_bytes(raw[:-16])
    with pytest.raises(DataError):
        load_model(tmp_path / "cut.bin")


def test_load_rejects_corrupt_header(tmp_path):
    m = _random_model(seed=9)
    path = tmp_path / "model.txt"
    save_model(m, path)
    text = path.read_text().replace("filter=tikhonov", "filter=bogus")
    (tmp_path / "bad.txt").write_text(text)
    with pytest.raises(DataError):
        load_model(tmp_path / "bad.txt")


def test_text_payload_uses_full_precision(tmp_path):
    # 17 significant digits round-trip float64 exactly
    m = _random_model(seed=10)
    path = tmp_path / "model.txt"
    save_model(m, path)
    npt.assert_array_equal(load_model(path).points, m.points)
