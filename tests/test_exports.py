import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import vixpricer

MODULES = [vixpricer] + [importlib.import_module(f"vixpricer.{info.name}")
                         for info in pkgutil.iter_modules(vixpricer.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_no_scipy_root_finder_or_stats_import(module):
    # every bracketed root goes through vixpricer.numerics; and importing
    # scipy.stats, even lazily, more than doubles the package's start-up
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert not [name for name in imported
                if f"{name}.".startswith(("scipy.optimize.", "scipy.stats."))]
