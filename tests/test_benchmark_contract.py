"""The benchmark's tracer wraps stegomail functions by name; keep them there.

``perfbench/tracer.py`` lists each layer as ``module:qualified.name`` and
rebinds those names at run time, so a rename in ``src/`` would only show
when the benchmark runs with ``--trace 1``.  This reads the list from the
tracer's source, without importing it, and checks every target resolves.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_constant(name: str):
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == name):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


def _missing(target: str) -> bool:
    modname, qualname = target.split(":")
    module = importlib.import_module("stegomail." + modname)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return attr not in vars(getattr(module, cls_name, object))
    return not callable(getattr(module, qualname, None))


def test_every_traced_layer_target_resolves():
    layers = _tracer_constant("LAYERS")
    targets = [t for group in layers.values() for t in group]
    targets += list(_tracer_constant("RESULT_SIZES"))
    assert len(targets) > 30
    assert [t for t in targets if _missing(t)] == []
