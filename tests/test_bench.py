"""The benchmark's tracer finds every setlearn name it wraps.

``bench/tracing.py`` looks up each wrapped function at the name a setlearn
module imports it under (``setlearn.cli.fit``, ``setlearn.model_io.fit``,
``setlearn.estimator.cho_factor``, ...) when a ``Tracer`` is built, so a
refactor that drops one of those imports makes every benchmark run fail.
"""

import os

import numpy as np

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    tracer = tracing.Tracer()
    assert tracer._patches


def test_traced_solves_record_their_spans(monkeypatch, tmp_path):
    """Traced ops call each wrapped function with the arguments the library
    passes it: a spectral model's solve and a small sweep, run under the
    tracer, record ``filters.decompose`` with its ``n3`` count, and no
    traced call raises."""
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    from setlearn import Abel, Tikhonov, fit
    from setlearn.cli import main

    points = np.random.default_rng(36).normal(size=(30, 2))
    tracer = tracing.Tracer()
    tracer.install("test")
    try:
        fit(points, Abel(1.0), Tikhonov(1e-3), algorithm="spectral").decomposition
        assert main(["sweep", "--task", "circle", "--n", "40", "--lambdas", "1e-3,1e-2",
                     "--out", str(tmp_path / "s.csv"), "--no-timestamp"]) == 0
    finally:
        tracer.uninstall()
    solves = [s.counts for s in tracer.spans if s.name == "filters.decompose"]
    assert solves == [{"n3": 30.0 ** 3}, {"n3": 40.0 ** 3}]
