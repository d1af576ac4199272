import importlib
import pkgutil

import pytest

import chdp

MODULES = ["chdp"] + [f"chdp.{info.name}" for info in pkgutil.iter_modules(chdp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # The benchmark's tracer looks up each name in every chdp module's
    # __all__, so a stale entry would break it.
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
