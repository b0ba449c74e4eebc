"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by name;
every name it lists must still resolve, or traced benchmark runs break."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()
HOOKS = [(layer, attr) for table in (tracer.SPANS, tracer.ROLLUPS, tracer.COUNTS)
         for layer, attrs in table.items() for attr in attrs]


@pytest.mark.parametrize("layer, attr", HOOKS, ids=[f"{layer}.{attr}" for layer, attr in HOOKS])
def test_tracer_hook_resolves(layer, attr):
    module = tracer.LAYERS[layer]
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(vars(module)[attr])
