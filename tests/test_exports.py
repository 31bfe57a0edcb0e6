"""Every exported name resolves, so a deleted function cannot stay exported."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import; the package needs no
    # scipy at all, so a fresh `import dpextrema` must not pull it in
    package_root = str(Path(dpextrema.__file__).resolve().parents[1])
    code = "import sys, dpextrema; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "gaussian_k2_tied.ini"


@pytest.mark.parametrize(
    "statement",
    [
        "import dpextrema",
        "from dpextrema.cli import build_parser; build_parser()",
        f"from dpextrema.harness import load_config; load_config({str(SHIPPED_CONFIG)!r})",
    ],
    ids=["import", "build_parser", "load_config"],
)
def test_runtime_path_imports_no_scipy(statement):
    # the runtime needs numpy only; scipy is a test dependency
    package_root = str(Path(dpextrema.__file__).resolve().parents[1])
    code = (
        f"import sys; {statement}; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
