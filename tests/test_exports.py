"""Every name a module exports in ``__all__`` exists."""

import importlib

import pytest

MODULES = ["levyot", "levyot.measures", "levyot.transport", "levyot.families", "levyot.viscosity",
           "levyot.bounds", "levyot.suites"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert mod.__all__ and missing == []
