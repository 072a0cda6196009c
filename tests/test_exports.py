import importlib
import pkgutil
from collections import Counter

import pytest

import setlearn

MODULES = ["setlearn"] + sorted(f"setlearn.{m.name}"
                                for m in pkgutil.iter_modules(setlearn.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    """A star import of the package or a submodule gets every listed name, each once."""
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n, count in Counter(exported).items() if count > 1] == []
    assert [n for n in exported if not hasattr(module, n)] == []
