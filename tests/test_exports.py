import importlib
import pkgutil

import pytest

import vixpricer

MODULES = [vixpricer] + [importlib.import_module(f"vixpricer.{info.name}")
                         for info in pkgutil.iter_modules(vixpricer.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"
