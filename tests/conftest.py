import pytest

from setlearn import cli, estimator, filters, kernels, model_io

# Where the library calls each counted routine: the scipy entry points and gram.
_COUNTED = [(filters, "eigh"), (estimator, "cho_factor"), (estimator, "dtrtri"),
            (estimator, "dgeqrf"), (cli, "gram"), (estimator, "gram"), (model_io, "gram"),
            (kernels, "gram")]


@pytest.fixture
def solves(monkeypatch):
    """``solves()`` zeroes and returns the counts, kept from then on, of full
    eigensolves (``eigh``), eigenvalue-only solves (``eigvalsh``), Cholesky
    factorizations, triangular inverses (``dtrtri``), QR factorizations
    (``dgeqrf``) and Gram builds, each wrapped where the library calls it."""
    calls = dict.fromkeys(["eigh", "eigvalsh", "cho_factor", "dtrtri", "dgeqrf", "gram"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls["eigvalsh" if kwargs.get("eigvals_only") else name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in _COUNTED:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return lambda: calls.update(dict.fromkeys(calls, 0)) or calls
