"""Every exported name resolves, so a deleted function cannot stay exported."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dpextrema

MODULES = sorted(m.name for m in pkgutil.iter_modules(dpextrema.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"dpextrema.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"dpextrema.{name}.__all__ names undefined {missing}"


def test_every_name_the_package_imports_exists():
    tree = ast.parse(Path(dpextrema.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    missing = [
        f"{source}.{name}"
        for source, name in imported
        if not hasattr(importlib.import_module(f"dpextrema.{source}"), name)
        or not hasattr(dpextrema, name)
    ]
    assert not missing, f"dpextrema/__init__.py imports undefined names {missing}"
