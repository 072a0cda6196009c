import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import setlearn
import setlearn.cli

MODULES = ["setlearn"] + sorted(f"setlearn.{m.name}"
                                for m in pkgutil.iter_modules(setlearn.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    """A star import of the package or a submodule gets every listed name, each once."""
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n, count in Counter(exported).items() if count > 1] == []
    assert [n for n in exported if not hasattr(module, n)] == []


def test_console_script_resolves_to_the_cli_main():
    """``pyproject.toml``'s ``setlearn`` console script names ``setlearn.cli.main``."""
    tomllib = pytest.importorskip("tomllib")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(path, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["setlearn"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is setlearn.cli.main
