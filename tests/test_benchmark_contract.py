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
serves only tests.  The third, with ``ast`` too, finds no write of a
``.value`` attribute in ``src/`` outside ``prf.Counter``: a counter moves
only by ``Counter.take``.  The fourth, with ``ast`` as well, finds no
``.splitlines`` call, and no ``.split`` at a ``"\\n"`` or ``"\\r\\n"``, outside
``mail.py``: a trace line ends where the trace reader says it does.
The fifth runs one op of every workload in ``perfbench/workloads.py``, so a
changed signature fails here too.  The sixth counts
``channel.sample_id`` over one op, as the traced run does:
the benchmark's checks expect every workload to draw through it.  The
seventh counts ``sample_id`` and ``eval_bit_sync`` (``eval_bit_tuple`` for
``s3``) over single embeds, as the traced run's cross-check does against
``EmbedStats``.  The eighth checks that the workloads draw from both CDF
layouts, a packed ``array('d')`` and a list.  The ninth holds each of
those two calls to one Python frame, on either layout, the cost the
benchmark times per draw and per PRF query, and the last holds
``mail._mails`` to one frame whatever its row count.
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


def test_only_the_counter_writes_its_value():
    # A Counter moves in one place, Counter.take: any other code in src/
    # that assigns, augments or deletes a `.value` attribute fails here.
    writes = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside_counter = {id(sub) for node in tree.body
                          if path.stem == "prf" and getattr(node, "name", None) == "Counter"
                          for sub in ast.walk(node)}
        writes += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "value"
                   and not isinstance(node.ctx, ast.Load) and id(node) not in inside_counter]
    assert writes == []


def test_only_the_trace_reader_breaks_lines():
    # A trace line ends at "\n", as mail._trace_columns reads it: any other
    # module of src/ that calls .splitlines, or .split at a "\n" or "\r\n",
    # states a second line grammar and fails here.
    breaks = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "mail.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            seps = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "sep")]
            if node.func.attr == "splitlines" or node.func.attr == "split" and any(
                    isinstance(sep, ast.Constant) and sep.value in ("\n", "\r\n", b"\n", b"\r\n")
                    for sep in seps):
                breaks.append(f"{path.name}:{node.lineno}")
    assert breaks == []


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


def _cdf_types(workload, workdir: Path) -> set[str]:
    """The type names of every CDF of the channels a workload draws from:
    those its state holds, or, for the CLI, the one it loads by path."""
    from stegomail.channel import load_channel_file
    workdir.mkdir()
    state = workload.setup(1, workdir)
    if hasattr(state, "specs"):
        specs = list(state.specs.values())
    elif hasattr(state, "spec"):
        specs = [state.spec]
    else:
        specs = [load_channel_file(state.channel_path)]
    return {type(cdf).__name__ for spec in specs
            for cdf in ([spec._cum] if spec._cum is not None else spec._cum_rows.values())}


def test_the_workloads_cover_both_cdf_layouts(tmp_path):
    # A CDF of channel._PACKED_MIN entries or more is an array('d'), a shorter
    # one a list.  prior-systems draws from a packed CDF; the other three
    # workloads, whose channels hold at most 1024 documents, from lists.
    layouts = {name: _cdf_types(workload, tmp_path / name.replace("-", "_"))
               for name, workload in WORKLOADS.items()}
    assert layouts == {"email-roundtrip": {"list"}, "cli-trace": {"list"},
                       "warden-game": {"list"}, "prior-systems": {"array"}}


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


@pytest.mark.parametrize("call", ["sample_id", "sample_id-packed", "sample_id-markov1",
                                  "eval_bit_sync-keyed", "eval_bit_sync-random_oracle"])
def test_each_draw_and_query_opens_one_python_frame(call):
    # A draw is rng.random(), the generator's own C method, on a CDF read by
    # one subscript, and a query hashes or looks up its input inline, so
    # neither opens a second frame.  That holds for a list CDF and a packed one.
    # The collector is paused, as in test_mails_opens_one_python_frame: a
    # collection during the call would count frames that are not its own.
    from stegomail import BitFunction, ChannelSpec, Counter, Key, RngState, eval_bit_sync
    from stegomail.channel import sample_id
    from stegomail.security import _gc_paused
    if call.startswith("sample_id"):
        spec = (ChannelSpec.markov1([[0.9, 0.1], [0.5, 0.5]], [0.5, 0.5])
                if call.endswith("markov1")
                else ChannelSpec.uniform(1 << 12 if call.endswith("packed") else 1024))
        rng = RngState(3)
        sample_id(spec, None, rng)  # the first draw seeds the stream
        for prev in (None, 0, 1):
            with _gc_paused():
                assert _python_frames(sample_id, spec, prev, rng) == 1
        return
    fn = (BitFunction.keyed(Key(bytes(16))) if call.endswith("keyed")
          else BitFunction.random_oracle(3))
    for doc_id in (1, 2, 1):  # two misses, then a hit
        with _gc_paused():
            assert _python_frames(eval_bit_sync, fn, 5, doc_id) == 1


def _lines_run(fn, *args) -> int:
    """Python lines that ``fn(*args)`` runs, in every frame it opens."""
    lines = [0]

    def trace(frame, event, arg):
        if event == "line":
            lines[0] += 1
        return trace

    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return lines[0]


def test_mails_opens_one_python_frame():
    # Each row is built in C: a per-row Python loop would run more lines for
    # more rows, and a per-row helper or __init__ call would open more frames.
    # The collector is paused: a collection may close an unreachable generator
    # or run a finalizer or a gc callback, each a Python frame of its own.
    from stegomail.mail import Mail, _mails
    from stegomail.security import _gc_paused
    lines = set()
    for n in (0, 1, 4096):
        columns = (list(range(n)), [7] * n, [("address1",)] * n)
        with _gc_paused():
            assert _python_frames(_mails, *columns) == 1
            lines.add(_lines_run(_mails, *columns))
        assert _mails(*columns) == [Mail(7, ("address1",), t) for t in range(n)]
    assert len(lines) == 1
