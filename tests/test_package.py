"""The package's public names: every ``__all__`` entry and every name
``qheun/__init__.py`` re-exports resolves, so a deletion cannot leave a
stale export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qheun

MODULES = sorted(m.name for m in pkgutil.iter_modules(qheun.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module(f"qheun.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_every_package_reexport_resolves():
    tree = ast.parse(Path(qheun.__file__).read_text())
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            mod = importlib.import_module(f"qheun.{node.module}")
            missing += [a.name for a in node.names if not (hasattr(mod, a.name) and hasattr(qheun, a.name))]
    assert missing == []
