"""The benchmark calls stegomail by name; keep those names and signatures.

``perfbench/tracer.py`` lists each layer as ``module:qualified.name`` and
rebinds those names at run time, so a rename in ``src/`` would only show
when the benchmark runs with ``--trace 1``.  The first test reads the list
from the tracer's source, without importing it, and checks every target
resolves.  The second, also with ``ast``, checks that the package or the
benchmark reaches every public name, so no library code serves only tests.
The third runs one op of every workload in ``perfbench/workloads.py``, so a
changed signature fails here too.  The fourth counts
``channel.sample_id`` over one op, as the traced run does:
the benchmark's checks expect every workload to draw through it.  The
fifth counts ``sample_id`` and ``eval_bit_sync`` over single embeds, as the
traced run's cross-check does against ``EmbedStats``.  The last holds each
of those two calls to one Python frame, the cost the benchmark times per
draw and per PRF query.
"""

import ast
import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src" / "stegomail"
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


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    # A public name that only tests call is code no run of the CLI or the
    # benchmark reaches.  Names are reached from code outside the public
    # names' own definitions, then from the definitions of reached names;
    # the re-exports in __init__ do not count.
    import stegomail
    public = {name for name, value in vars(stegomail).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    # public name -> the names its definition reads; None -> the names all
    # other code reads
    refs: dict[str | None, set[str]] = {}
    for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]:
        if path == SRC / "__init__.py":
            continue
        module = f"stegomail.{path.stem}" if path.parent == SRC else None
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(node, "name", None)
            owner = name if name in public and getattr(
                getattr(stegomail, name), "__module__", None) == module else None
            refs.setdefault(owner, set()).update(
                sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                if isinstance(sub, (ast.Name, ast.Attribute)))
    used, todo = set(), [None]
    while todo:
        reached = refs.get(todo.pop(), set()) & public - used
        used |= reached
        todo += reached
    assert len(public) > 50
    assert sorted(public - used) == []


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


def _count_calls(monkeypatch, module: str, name: str) -> list[int]:
    """Rebind `module.name` in every stegomail namespace that holds it, as the
    tracer does, with a wrapper that counts calls; monkeypatch puts each
    original back.  Returns a one-element list holding the count."""
    original = getattr(importlib.import_module(module), name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname == "stegomail" or modname.startswith("stegomail."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_op_calls_sample_id(name, tmp_path, monkeypatch):
    workload = WORKLOADS[name]
    state = workload.setup(1, tmp_path)
    calls = _count_calls(monkeypatch, "stegomail.channel", "sample_id")
    assert workload.op(state, 0).ok
    assert calls[0] > 0


@pytest.mark.parametrize("system", ["p1", "p2", "s2"])
def test_embed_calls_match_embed_stats(system, monkeypatch):
    # The traced run checks channel.sample_id and the embed-side PRF calls
    # against EmbedStats, and p1/p2 against one of each per bit, so an embed
    # that fuses either call away must fail here too.
    from stegomail import (BitFunction, ChannelSpec, Counter, EmbedStats,
                           RngState, p1_embed, p2_embed, s2_embed)
    draws = _count_calls(monkeypatch, "stegomail.channel", "sample_id")
    evals = _count_calls(monkeypatch, "stegomail.prf", "eval_bit_sync")
    fn, stats, n = BitFunction.random_oracle(3), EmbedStats(), 200
    args = (fn, Counter(), RngState(5).bits(n), ChannelSpec.uniform(4), RngState(7))
    if system == "s2":
        s2_embed(*args, repetition=3, stats=stats)
        assert draws[0] == stats.samples_drawn > 3 * n
        assert evals[0] == stats.prf_evals == stats.samples_drawn
    else:
        {"p1": p1_embed, "p2": p2_embed}[system](*args, stats=stats)
        assert draws[0] == evals[0] == stats.samples_drawn == stats.prf_evals == n


def _python_frames(fn, *args) -> int:
    """Python frames that ``fn(*args)`` opens, its own included."""
    frames = [0]

    def profile(frame, event, arg):
        if event == "call":
            frames[0] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return frames[0]


@pytest.mark.parametrize("call", ["sample_id", "sample_id-markov1",
                                  "eval_bit_sync-keyed", "eval_bit_sync-random_oracle"])
def test_each_draw_and_query_opens_one_python_frame(call):
    # A draw is rng.random(), the generator's own C method, on a CDF read by
    # one subscript, and a query hashes or looks up its input inline, so
    # neither opens a second frame.
    from stegomail import (BitFunction, ChannelSpec, Counter, Document, Key,
                           RngState, eval_bit_sync)
    from stegomail.channel import sample_id
    if call.startswith("sample_id"):
        spec = (ChannelSpec.markov1([[0.9, 0.1], [0.5, 0.5]], [0.5, 0.5])
                if call.endswith("markov1") else ChannelSpec.uniform(1024))
        rng = RngState(3)
        sample_id(spec, None, rng)  # the first draw seeds the stream
        for prev in (None, 0, 1):
            assert _python_frames(sample_id, spec, prev, rng) == 1
        return
    fn = (BitFunction.keyed(Key(bytes(16))) if call.endswith("keyed")
          else BitFunction.random_oracle(3))
    counter = Counter(5)
    for d in (Document(1), Document(2), Document(1)):  # two misses, then a hit
        assert _python_frames(eval_bit_sync, fn, counter, d) == 1
