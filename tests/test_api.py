"""Public surface: exported names resolve, bae stands below wavefn, and
the quadrature oracle stays independent of the exact calculus."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qnls
from qnls import bae, oracle, suites, wavefn

MODULES = sorted(m.name for m in pkgutil.iter_modules(qnls.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"qnls.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


def test_rapidity_set_has_one_home():
    assert bae.RapiditySet is wavefn.RapiditySet
    assert bae.ON_SHELL_TOL is wavefn.ON_SHELL_TOL


def _imported_names(module) -> set[str]:
    """Every module and name that the module's source imports."""
    imported = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[-1] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(a.name for a in node.names)
    return imported


def test_bae_does_not_import_wavefn():
    assert "wavefn" not in _imported_names(bae)


def test_suites_do_not_import_cli():
    assert "cli" not in _imported_names(suites)


def test_oracle_imports_only_pointwise_evaluation():
    tree = ast.parse(Path(oracle.__file__).read_text())
    internal = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("qnls")):
            module = (node.module or "").removeprefix("qnls").strip(".")
            internal.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            internal.update(a.name.removeprefix("qnls.") for a in node.names if a.name.startswith("qnls."))
    assert internal == {"alcovefn", "symgroup"}
