"""Every layer the benchmark tracer wraps names a live nestrix object.

``bench/tracing.py`` binds its ``LAYERS`` by name when ``--trace 1``
installs it, so a deleted or renamed function would only fail there.
This test loads the tracer by path and resolves each entry the same way.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def tracer_layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module, attr",
                         [(m, a) for m, a, _, _ in tracer_layers()])
def test_layer_resolves(module, attr):
    mod = importlib.import_module(f"nestrix.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, attr, None))
