"""Every name a module exports in ``__all__`` exists, and every span target of ``perfbench/spans.py`` resolves."""

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


def _target(owner: str, attr: str):
    """The object a ``TARGETS`` entry names: a module attribute, or a class's own attribute."""
    mod_name, _, cls_name = owner.partition(":")
    holder = importlib.import_module(mod_name)
    return vars(getattr(holder, cls_name, object)).get(attr) if cls_name else getattr(holder, attr, None)


def test_perfbench_trace_targets_resolve():
    # ``perfbench/run.py --trace 1`` patches each target in place, so a
    # renamed target breaks the traced run but not the plain one.  Each
    # entry must name a callable, with a callable counts extractor or None.
    targets = _load_spans().TARGETS
    unresolved = [name for name, owner, attr, info in targets
                  if not callable(_target(owner, attr)) or not (info is None or callable(info))]
    assert unresolved == []
    assert len({name for name, *_ in targets}) == len(targets)


def test_perfbench_tracer_wraps_and_restores_every_target():
    # The tracer replaces every target with a wrapper that records a span,
    # and puts each original back on exit; nothing on disk is touched.
    from levyot.measures import DiscreteMeasure
    from levyot.transport import distance, solve

    spans = _load_spans()
    originals = {name: _target(owner, attr) for name, owner, attr, _ in spans.TARGETS}
    tracer = spans.Tracer()
    with tracer:
        wrapped = [name for name, owner, attr, _ in spans.TARGETS if _target(owner, attr) is not originals[name]]
        distance(DiscreteMeasure(2, [[0.5, 0.0]], [1.0]), DiscreteMeasure(2, [[0.0, 0.5]], [1.0]), 2.0)
    assert sorted(wrapped) == sorted(originals)
    assert [name for name, owner, attr, _ in spans.TARGETS if _target(owner, attr) is not originals[name]] == []
    assert "transport.solve" in [span.name for span in tracer.spans]
    assert importlib.import_module("levyot.transport").solve is solve
