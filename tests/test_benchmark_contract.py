"""The benchmark calls stegomail by name; keep those names and signatures.

``perfbench/tracer.py`` lists each layer as ``module:qualified.name`` and
rebinds those names at run time, so a rename in ``src/`` would only show
when the benchmark runs with ``--trace 1``.  The first test reads the list
from the tracer's source, without importing it, and checks every target
resolves.  The second runs one op of every workload in
``perfbench/workloads.py``, so a changed signature fails here too.  The
third counts ``channel.sample_id`` over one op, as the traced run does:
the benchmark's checks expect every workload to draw through it.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    # Leave no bytecode cache inside the benchmark's directory.
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


WORKLOADS = _load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_op_runs(name, tmp_path):
    workload = WORKLOADS[name]
    state = workload.setup(1, tmp_path)
    assert workload.op(state, 0).ok


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_op_calls_sample_id(name, tmp_path, monkeypatch):
    workload = WORKLOADS[name]
    state = workload.setup(1, tmp_path)
    # Rebind sample_id in every stegomail namespace that holds it, as the
    # tracer does; monkeypatch puts each original back.
    original = importlib.import_module("stegomail.channel").sample_id
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if modname == "stegomail" or modname.startswith("stegomail."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    assert workload.op(state, 0).ok
    assert calls > 0
