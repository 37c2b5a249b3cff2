"""The traced benchmark rebinds classim functions by name; keep those names."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the tracer; installs nothing
    return module._TARGETS


def test_every_traced_layer_function_resolves():
    targets = _targets()
    assert targets
    for name, module_name, path, _ in targets:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # the tracer reads the attribute from its owner's own namespace
        assert callable(vars(owner).get(attr)), f"{name}: {module_name}.{path} is gone"
