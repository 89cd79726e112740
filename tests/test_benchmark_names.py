"""The benchmark's per-layer metrics name package functions that must exist.

bench/tracing.py keys the metrics `<layer>.<function>.calls` and
`<layer>.<function>.s` on module-level functions of `odadjust.<layer>`; a
renamed function would leave its metric empty without any error.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
TRACED = re.compile(r"^(\w+)\.(\w+)\.(calls|s)$")


def test_per_layer_names_are_public_functions():
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    matches = [TRACED.match(m["name"]) for m in metrics]
    traced = sorted({m.group(1, 2) for m in matches if m})
    assert traced
    for layer, function in traced:
        module = importlib.import_module("odadjust." + layer)
        obj = getattr(module, function, None)
        assert not function.startswith("_"), function
        assert inspect.isfunction(obj), "%s.%s" % (layer, function)
        assert obj.__module__ == module.__name__, "%s.%s" % (layer, function)
