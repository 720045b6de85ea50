"""The benchmark tracer's function list resolves against the package."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def test_every_traced_function_exists(monkeypatch):
    # a deleted or renamed function would break traced benchmark runs
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import TRACED

    names = [f"metriclab.{layer}.{name}" for layer, fns in TRACED.items() for name in fns]
    assert names
    for qualified in names:
        module, name = qualified.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(module), name, None)), qualified
