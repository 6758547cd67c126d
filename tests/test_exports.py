"""Every name a module exports in ``__all__`` exists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

MODULES = ["levyot", "levyot.measures", "levyot.transport", "levyot.families", "levyot.viscosity",
           "levyot.bounds", "levyot.suites"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert mod.__all__ and missing == []


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_trace_targets_resolve():
    # ``perfbench/run.py --trace 1`` patches each target in place, so a
    # renamed target breaks the traced run but not the plain one.
    unresolved = []
    for name, owner, attr, _ in _load_spans().TARGETS:
        mod_name, _, cls_name = owner.partition(":")
        holder = importlib.import_module(mod_name)
        if cls_name:
            found = attr in getattr(holder, cls_name, object).__dict__
        else:
            found = callable(getattr(holder, attr, None))
        if not found:
            unresolved.append(name)
    assert unresolved == []
