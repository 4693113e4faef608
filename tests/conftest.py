import importlib
import sys

import pytest

from stegomail import (ADDRESS1, ADDRESS2, BitFunction, ChannelSpec, ConfigError,
                       Document, Key, Mail, ProtocolError)

MASTER_SEED = 20260811


def point_mass(n: int, target: int = 0) -> ChannelSpec:
    """The channel over n documents that always sends document `target`."""
    return ChannelSpec.stationary([float(i == target) for i in range(n)])


UNIFORM_1024 = ChannelSpec.uniform(1024)
POINT_MASS = point_mass(4)
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


def encode_sync(value: int, doc_id: int) -> bytes:
    """The reference F2 input: the tag, then the counter value and the
    document id, each 8 bytes big-endian."""
    return b"F2" + value.to_bytes(8, "big") + doc_id.to_bytes(8, "big")


def trace_columns_reference(text: str) -> tuple[list[int], list[int],
                                                 list[tuple[str, ...]]]:
    """The trace grammar read from the whole text at once, as the reference
    for the piecewise reader: a line ends at "\n", a "\r" just before it
    included, and each nonblank line is one ``Mail``.  It returns send ticks,
    document ids and address arrays, with the same checks, messages and
    first-bad-line order."""
    ticks: list[int] = []
    docs: list[int] = []
    addresses: list[tuple[str, ...]] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if not line or line.isspace():
            continue
        try:
            raw_sent, raw_doc, raw_addrs = line.split("\t")
        except ValueError:
            raise ProtocolError(
                f"trace line {lineno}: expected 3 tab-separated fields") from None
        try:
            tick = int(raw_sent)
        except ValueError as e:
            raise ProtocolError(f"trace line {lineno}: {e}") from e
        try:
            doc = Document(int(raw_doc)).id
        except (ValueError, ConfigError) as e:
            raise ProtocolError(f"trace line {lineno}: {e}") from e
        try:
            mail = Mail(doc, tuple(raw_addrs.split(",")), tick)
        except ProtocolError as e:
            raise ProtocolError(f"trace line {lineno}: {e}") from None
        ticks.append(mail.sent_at)
        docs.append(mail.doc)
        addresses.append(mail.addresses)
    return ticks, docs, addresses


def p1_route(mails: list[Mail]) -> tuple[list[Mail], list[Mail]]:
    """Split a sent p1 sequence into the address1 and address2 mailboxes."""
    boxes: dict[tuple[str, ...], list[Mail]] = {(ADDRESS1,): [], (ADDRESS2,): []}
    for mail in mails:
        if mail.addresses not in boxes:
            raise ProtocolError(
                f"mail addressed to {mail.addresses!r} is outside the p1 address set")
        boxes[mail.addresses].append(mail)
    return boxes[(ADDRESS1,)], boxes[(ADDRESS2,)]


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
