"""The benchmark's per-layer metrics name package functions that must exist.

bench/tracing.py keys the metrics `<layer>.<function>.calls` and
`<layer>.<function>.s` on module-level functions of `odadjust.<layer>`; a
renamed function would leave its metric empty without any error.
bench/run.py's END_TO_END and PER_LAYER tables name and order the metrics it
reports, which must be those BENCHMARK.json declares.
"""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
RUN_PY = ROOT / "bench" / "run.py"
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


def _run_py_tables():
    """END_TO_END, PER_LAYER and unit_of from bench/run.py's source, read
    without importing it, as the import sets BLAS environment variables."""
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("END_TO_END", "PER_LAYER"):
                tables[name] = ast.literal_eval(node.value)
        elif isinstance(node, ast.FunctionDef) and node.name == "unit_of":
            namespace = {}
            exec(compile(ast.Module(body=[node], type_ignores=[]), str(RUN_PY), "exec"),
                 namespace)
            tables["unit_of"] = namespace["unit_of"]
    return tables


def test_run_py_tables_match_benchmark_json():
    # bench/run.py reports the metrics BENCHMARK.json declares: the same
    # names and units, in the same order
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    tables = _run_py_tables()
    assert (list(tables["END_TO_END"].items())
            == [(m["name"], m["unit"]) for m in declared["end_to_end"]])
    assert ([(name, tables["unit_of"](name)) for name in tables["PER_LAYER"]]
            == [(m["name"], m["unit"]) for m in declared["per_layer"]])
