import importlib
import sys

import pytest

from stegomail import BitFunction, ChannelSpec, Document, Key

MASTER_SEED = 20260811

UNIFORM_1024 = ChannelSpec.uniform(1024)
POINT_MASS = ChannelSpec.point_mass(4)
MARKOV2 = ChannelSpec.markov1([[0.9, 0.1], [0.5, 0.5]], [0.5, 0.5])

TEST_CHANNELS = {
    "uniform_1024": UNIFORM_1024,
    "point_mass": POINT_MASS,
    "markov1": MARKOV2,
}


@pytest.fixture
def fixed_key() -> Key:
    return Key.from_hex("000102030405060708090a0b0c0d0e0f")


@pytest.fixture
def keyed_fn(fixed_key) -> BitFunction:
    return BitFunction.keyed(fixed_key)


def find_key_where(predicate, limit: int = 4096) -> Key:
    """Deterministically search small keys until `predicate(fn)` holds."""
    for i in range(limit):
        key = Key(i.to_bytes(16, "big"))
        fn = BitFunction.keyed(key)
        if predicate(fn):
            return key
    raise AssertionError("no key satisfying the predicate in search range")


@pytest.fixture
def documents_built(monkeypatch) -> list[int]:
    """The id of every Document built while the test runs, in order."""
    built: list[int] = []
    init = Document.__init__

    def counting_init(self, id):
        built.append(id)
        init(self, id)

    monkeypatch.setattr(Document, "__init__", counting_init)
    return built


def count_calls(monkeypatch, module: str, name: str) -> list[int]:
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
