"""Every name a module lists in ``__all__`` exists.

perfbench/tracer.py looks up each listed name to wrap it, so a name left
behind by a deletion would break a traced benchmark run.
"""

import importlib

import pytest

MODULES = ("signals", "filters", "combination", "linalg", "harness", "theory")


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"apamix.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"apamix.{module}.__all__ lists undefined names: {missing}"
