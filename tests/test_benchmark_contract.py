"""The benchmark calls stegomail by name; keep those names and signatures.

``perfbench/tracer.py`` lists each layer as ``module:qualified.name`` and
rebinds those names at run time, so a rename in ``src/`` would only show
when the benchmark runs with ``--trace 1``.  The first test reads the list
from the tracer's source, without importing it, and checks every target
resolves.  The second, also with ``ast``, checks that the package or the
benchmark reaches every module-level function and class in ``src/``, public
or private, and every public name: each must be read by module code outside
those definitions, by a click command, by the console entry point, by
``perfbench/`` or by a definition already reached, so no code in ``src/``
serves only tests.
The third runs one op of every workload in ``perfbench/workloads.py``, so a
changed signature fails here too.  The fourth counts
``channel.sample_id`` over one op, as the traced run does:
the benchmark's checks expect every workload to draw through it.  The
fifth counts ``sample_id`` and ``eval_bit_sync`` (``eval_bit_tuple`` for
``s3``) over single embeds, as the traced run's cross-check does against
``EmbedStats``.  The last holds each of those two calls to one Python frame,
the cost the benchmark times per draw and per PRF query.
"""

import ast
import importlib
import importlib.util
import re
import sys
import types
from pathlib import Path

import pytest

from conftest import count_calls

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


def _names_read(node: ast.AST) -> set[str]:
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)}


def _is_click_command(node: ast.AST) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "attr", None) in ("command", "group")
               for d in node.decorator_list)


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    # A definition that only tests call is code no run of the CLI or the
    # benchmark reaches.  Every module-level function and class in
    # src/stegomail, public or private, and every public name must be read by
    # module code outside those definitions, by a click command, by the
    # console entry point, by perfbench/, or by the definition of a name
    # already reached.  Names are matched by identifier; the re-exports in
    # __init__ do not count.
    import stegomail
    public = {name for name, value in vars(stegomail).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    entry_points = set(re.findall(r'"stegomail\.(\w+):(\w+)"',
                                  (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    # "module.name" of a module-level function or class -> the names its
    # definition reads; None -> the names all other code reads
    refs: dict[str | None, set[str]] = {None: set()}
    for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]:
        if path == SRC / "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (path.parent == SRC and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and (path.stem, node.name) not in entry_points
                    and not _is_click_command(node)):
                refs[f"{path.stem}.{node.name}"] = _names_read(node)
            else:
                refs[None] |= _names_read(node)
    reached, grew = {None}, True
    while grew:
        names = set().union(*(refs[key] for key in reached))
        grew = {key for key in refs.keys() - reached if key.split(".")[1] in names}
        reached |= grew
    assert len(public) > 50 and len(refs) > 88
    assert sorted(refs.keys() - reached) == []
    assert sorted(public - names) == []


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
    calls = count_calls(monkeypatch, "stegomail.channel", "sample_id")
    assert workload.op(state, 0).ok
    assert calls[0] > 0


@pytest.mark.parametrize("system", ["p1", "p2", "s2", "s3", "s4"])
def test_embed_calls_match_embed_stats(system, monkeypatch):
    # The traced run checks channel.sample_id and the embed-side PRF calls
    # against EmbedStats, and p1/p2 against one of each per bit, so an embed
    # that fuses either call away must fail here too.
    from stegomail import (BitFunction, ChannelSpec, Counter, EmbedStats,
                           RngState, p1_embed, p2_embed, s2_embed, s3_embed,
                           s4_embed)
    draws = count_calls(monkeypatch, "stegomail.channel", "sample_id")
    evals = count_calls(monkeypatch, "stegomail.prf",
                        "eval_bit_tuple" if system == "s3" else "eval_bit_sync")
    fn, stats, n = BitFunction.random_oracle(3), EmbedStats(), 200
    m, spec, rng = RngState(5).bits(n), ChannelSpec.uniform(4), RngState(7)
    args = (fn, Counter(), m, spec, rng)
    if system == "s2":
        s2_embed(*args, repetition=3, stats=stats)
        assert draws[0] == stats.samples_drawn > 3 * n
        assert evals[0] == stats.prf_evals == stats.samples_drawn
    elif system == "s3":
        s3_embed(fn, m, spec, rng, copies=3, count=8, stats=stats)
        assert draws[0] == stats.samples_drawn == 3 * stats.prf_evals
        assert evals[0] == stats.prf_evals > n
    elif system == "s4":
        s4_embed(*args, copies=3, stats=stats)
        assert draws[0] == stats.samples_drawn == 2 * 3 * n
        assert evals[0] == stats.prf_evals == 3 * n
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
    from stegomail import BitFunction, ChannelSpec, Counter, Key, RngState, eval_bit_sync
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
    for doc_id in (1, 2, 1):  # two misses, then a hit
        assert _python_frames(eval_bit_sync, fn, counter, doc_id) == 1
