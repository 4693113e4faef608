"""Keyed one-bit functions and their idealized random-function twin.

The keyed mode is a BLAKE2b keyed hash truncated to its least significant
bit.  Three input signatures are used by the different systems and kept
apart by domain tags:

* ``F1`` — a bare document,
* ``F2`` — a synchronized counter value followed by a document,
* ``F3`` — a tuple of documents, length-prefixed per element.

``random_oracle`` mode replaces the keyed hash with a lazily sampled true
random function over the same encoded inputs; the address-uniformity
properties and the PRF-reduction games swap it in for the keyed side.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Sequence

from .channel import Document
from .errors import ConfigError, CounterError
from .rng import RngState

_TAG_DOC = b"F1"
_TAG_SYNC = b"F2"
_TAG_TUPLE = b"F3"


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
    def generate(cls, rng: RngState, bits: int = 128) -> "Key":
        if bits % 8:
            raise ConfigError("key length must be a whole number of bytes")
        return cls(rng.bytes(bits // 8))


@dataclass
class Counter:
    """Synchronized counter shared by sender and receiver.

    One increment per one-bit embed and per one-bit extract; wrapping past
    the declared width is treated as a hard error rather than silent
    modular reuse of PRF inputs.
    """

    value: int = 0
    n_bits: int = 64

    def __post_init__(self) -> None:
        if self.n_bits % 8 or self.n_bits <= 0:
            raise ConfigError("counter width must be a positive multiple of 8 bits")
        if not 0 <= self.value < (1 << self.n_bits):
            raise ConfigError(f"counter value {self.value} outside {self.n_bits}-bit range")

    @property
    def byte_width(self) -> int:
        return self.n_bits // 8

    def check_headroom(self, n: int) -> None:
        """Raise CounterError unless `n` more advances fit in the width."""
        if self.value + n >= (1 << self.n_bits):
            raise CounterError(f"counter overflow at width {self.n_bits} bits")

    def advance(self) -> None:
        self.check_headroom(1)
        self.value += 1


class BitFunction:
    """One-bit function over encoded inputs: keyed hash or true random."""

    __slots__ = ("mode", "key", "table", "_coins", "_keyed_hash")

    def __init__(self, mode: str, key: Key | None = None,
                 oracle_seed: int | None = None) -> None:
        if mode == "keyed":
            if key is None:
                raise ConfigError("keyed mode requires a key")
            self.key = key
            self.table = None
            self._coins = None
            # Keying BLAKE2b hashes a whole key block; copying a keyed state
            # is cheaper than keying a fresh one on every evaluation.
            self._keyed_hash = hashlib.blake2b(digest_size=1, key=key.data)
        elif mode == "random_oracle":
            self.key = None
            self.table: dict[bytes, int] = {}
            self._coins = random.Random(oracle_seed)
            self._keyed_hash = None
        else:
            raise ConfigError(f"unknown bit-function mode {mode!r}")
        self.mode = mode

    @classmethod
    def keyed(cls, key: Key) -> "BitFunction":
        return cls("keyed", key=key)

    @classmethod
    def random_oracle(cls, seed: int = 0) -> "BitFunction":
        return cls("random_oracle", oracle_seed=seed)

    def bit(self, data: bytes) -> int:
        """The function's bit for an already-encoded input."""
        if self.mode == "keyed":
            h = self._keyed_hash.copy()
            h.update(data)
            return h.digest()[0] & 1
        got = self.table.get(data)
        if got is None:
            got = self.table[data] = self._coins.getrandbits(1)
        return got


def encode_doc(d: Document) -> bytes:
    return _TAG_DOC + d.to_bytes()


def encode_sync(value: int, byte_width: int, d: Document) -> bytes:
    return _TAG_SYNC + value.to_bytes(byte_width, "big") + d.to_bytes()


def encode_tuple(docs: Sequence[Document]) -> bytes:
    # A singleton tuple IS the bare-document signature: the tuple systems
    # must degenerate exactly to the single-document ones at size 1.
    if len(docs) == 1:
        return encode_doc(docs[0])
    parts = [_TAG_TUPLE]
    for d in docs:
        raw = d.to_bytes()
        parts.append(len(raw).to_bytes(4, "big"))
        parts.append(raw)
    return b"".join(parts)


def eval_bit(fn: BitFunction, d: Document) -> int:
    """Bit of a single document (the unsynchronized systems' signature)."""
    return fn.bit(encode_doc(d))


def eval_bit_sync(fn: BitFunction, counter: Counter, d: Document) -> int:
    """Bit of (counter value, document); does not advance the counter.

    The input is ``encode_sync(counter.value, counter.byte_width, d)``,
    built inline because this is the email protocols' per-bit hot path.
    """
    return fn.bit(_TAG_SYNC + counter.value.to_bytes(counter.n_bits // 8, "big")
                  + d.id.to_bytes(8, "big") + d.payload)


def eval_bit_tuple(fn: BitFunction, docs: Sequence[Document]) -> int:
    """Bit of an ordered document tuple."""
    if not docs:
        raise ConfigError("document tuple must be nonempty")
    return fn.bit(encode_tuple(docs))
