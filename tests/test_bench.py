"""The benchmark's tracer finds every setlearn name it wraps.

``bench/tracing.py`` looks up each wrapped function at the name a setlearn
module imports it under (``setlearn.cli.fit``, ``setlearn.model_io.fit``,
``setlearn.estimator.cho_factor``, ...) when a ``Tracer`` is built, so a
refactor that drops one of those imports makes every benchmark run fail.
"""

import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    tracer = tracing.Tracer()
    assert tracer._patches
