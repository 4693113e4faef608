"""Keyed one-bit functions and their idealized random-function twin.

A keyed function is a BLAKE2b keyed hash truncated to its least
significant bit.  Three input signatures are used by the different
systems and kept apart by domain tags:

* ``F1`` — a bare document,
* ``F2`` — a synchronized counter value followed by a document,
* ``F3`` — a tuple of documents, length-prefixed per element.

A function with no key (``BitFunction.random_oracle``) is a lazily sampled
true random function over the same encoded inputs; the address-uniformity
properties and the random-function games swap it in for the keyed side.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Sequence

from .channel import Document
from .errors import ConfigError, CounterError
from .rng import RngState

_TAG_DOC = b"F1"
_TAG_SYNC = b"F2"
_TAG_TUPLE = b"F3"
_LEN_ID = (8).to_bytes(4, "big")  # F3's length prefix of one 8-byte id
# An F2 input: the tag, the counter value and the document id, both 8 bytes
# big-endian, built in one pack call.  The tests hold the reference encoding.
_pack_sync = struct.Struct(">2sQQ").pack


@dataclass(frozen=True)
class Key:
    """Fixed-length secret key; at least 64 bits, whole bytes."""

    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) * 8 < 64:
            raise ConfigError(
                f"key must be at least 64 bits, got {len(self.data) * 8}")
        if len(self.data) > 64:
            raise ConfigError("key longer than 64 bytes is not supported")

    @property
    def bit_length(self) -> int:
        return len(self.data) * 8

    @classmethod
    def from_hex(cls, text: str) -> "Key":
        try:
            raw = bytes.fromhex(text.strip())
        except ValueError as e:
            raise ConfigError(f"key is not valid hex: {text!r}") from e
        return cls(raw)

    @classmethod
    def generate(cls, rng: RngState) -> "Key":
        """A fresh 128-bit key."""
        return cls(rng.bytes(16))


@dataclass
class Counter:
    """Synchronized 64-bit counter shared by sender and receiver.

    One increment per one-bit embed and per one-bit extract.  Every F2
    input encodes the value in 8 big-endian bytes, so wrapping past 2**64
    is treated as a hard error rather than silent modular reuse of PRF
    inputs.  A counter at value ``v`` therefore allows ``2**64 - 1 - v``
    advances: the top value ``2**64 - 1`` can be constructed but carries
    no bit.
    """

    value: int = 0

    def __post_init__(self) -> None:
        # Type first, as in Document: a float or a bool passes the range check.
        if type(self.value) is not int:
            raise ConfigError(
                f"counter value must be an int, not {type(self.value).__name__}")
        if not 0 <= self.value < 1 << 64:
            raise ConfigError(f"counter value {self.value} outside 64-bit range")

    def check_headroom(self, n: int) -> None:
        """Raise CounterError unless `n` more advances fit in 64 bits."""
        if self.value + n >= 1 << 64:
            raise CounterError("counter overflow at width 64 bits")


class BitFunction:
    """One-bit function over encoded inputs: keyed hash or true random.

    A function is keyed if and only if it holds a key.
    """

    __slots__ = ("key", "table", "_coins", "_keyed_hash")

    def __init__(self, key: Key | None = None, oracle_seed: int = 0) -> None:
        self.key = key
        if key is None:
            self.table: dict[bytes, int] = {}
            self._coins = random.Random(oracle_seed)
            self._keyed_hash = None
        else:
            self.table = None
            self._coins = None
            # Keying BLAKE2b hashes a whole key block; copying a keyed state
            # is cheaper than keying a fresh one on every evaluation.
            self._keyed_hash = hashlib.blake2b(digest_size=1, key=key.data)

    @classmethod
    def keyed(cls, key: Key) -> "BitFunction":
        return cls(key)

    @classmethod
    def random_oracle(cls, seed: int = 0) -> "BitFunction":
        return cls(oracle_seed=seed)

    def bit(self, data: bytes) -> int:
        """The function's bit for an already-encoded input."""
        if self._keyed_hash is not None:
            h = self._keyed_hash.copy()
            h.update(data)
            return h.digest()[0] & 1
        got = self.table.get(data)
        if got is None:
            got = self.table[data] = self._coins.getrandbits(1)
        return got

    def bits(self, inputs: Iterable[bytes]) -> list[int]:
        """``[self.bit(x) for x in inputs]`` in one call.

        The extractors evaluate a whole message at once.  The random oracle
        answers in input order, so it spends its coins exactly as the
        per-input calls would, a repeated input included.
        """
        out: list[int] = []
        append = out.append
        if self._keyed_hash is not None:
            copy = self._keyed_hash.copy
            for data in inputs:
                h = copy()
                h.update(data)
                append(h.digest()[0] & 1)
            return out
        table = self.table
        coin = self._coins.getrandbits
        for data in inputs:
            got = table.get(data)
            if got is None:
                got = table[data] = coin(1)
            append(got)
        return out


def encode_doc(d: Document) -> bytes:
    """The F1 input: the tag, then the document id, 8 bytes big-endian."""
    return _TAG_DOC + d.id.to_bytes(8, "big")


def encode_sync_run(value: int, ids: Iterable[int]) -> list[bytes]:
    """F2 inputs of consecutive counter values ``value, value + 1, ...``.

    Each is the tag ``F2``, then the counter value and the document id,
    both 8 bytes big-endian: the inputs a synchronized extractor evaluates.
    """
    return [_pack_sync(_TAG_SYNC, v, i) for v, i in zip(count(value), ids)]


def encode_tuple(docs: Sequence[Document]) -> bytes:
    # A singleton tuple IS the bare-document signature: the tuple systems
    # must degenerate exactly to the single-document ones at size 1.
    if len(docs) == 1:
        return encode_doc(docs[0])
    # Every element is an 8-byte id, so every length prefix is the same.
    return _TAG_TUPLE + b"".join([_LEN_ID + d.id.to_bytes(8, "big") for d in docs])


def eval_bit(fn: BitFunction, d: Document) -> int:
    """Bit of a single document (the unsynchronized systems' signature).

    The input is ``encode_doc(d)``, built inline because this is the
    rejection samplers' per-draw hot path.
    """
    return fn.bit(_TAG_DOC + d.id.to_bytes(8, "big"))


def eval_bit_sync(fn: BitFunction, counter: Counter, doc_id: int) -> int:
    """Bit of (counter value, document id); does not advance the counter.

    `doc_id` is an id a ``Document`` could hold, in [0, 2^64): the embedders
    pass each drawn id and build no ``Document`` for a draw they drop.  The
    input is the F2 encoding of ``counter.value`` and `doc_id`, packed in
    one call because this is the email protocols' per-bit embed path.  The
    keyed hash and the random oracle's lookup are inlined too (the oracle
    spends its coins as ``fn.bit`` does), so a call costs one Python frame.
    """
    data = _pack_sync(_TAG_SYNC, counter.value, doc_id)
    h = fn._keyed_hash
    if h is None:
        got = fn.table.get(data)
        if got is None:
            got = fn.table[data] = fn._coins.getrandbits(1)
        return got
    h = h.copy()
    h.update(data)
    return h.digest()[0] & 1


def eval_bit_tuple(fn: BitFunction, docs: Sequence[Document]) -> int:
    """Bit of an ordered document tuple."""
    if not docs:
        raise ConfigError("document tuple must be nonempty")
    return fn.bit(encode_tuple(docs))
