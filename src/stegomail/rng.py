"""Deterministic random streams for reproducible experiments.

Every randomized operation in the library takes an explicit ``RngState``.
The same seed and the same call sequence always produce the same outputs,
and independent trials get independent child streams via ``spawn()``.
"""

from __future__ import annotations

import hashlib
import random

# Byte -> its top bit, for RngState.bits.
_TOP_BIT = bytes(b >> 7 for b in range(256))


class RngState:
    """Seeded pseudo-random stream with deterministic child derivation."""

    # `random` is a slot, not a method: it holds ``self._rand.random``, the
    # generator's own C method, so a channel draw (``rng.random()``) opens
    # no Python frame of its own.  Both slots are set once, on first use.
    __slots__ = ("seed", "path", "_rand", "random")

    def __init__(self, seed: int, path: tuple[int, ...] = ()) -> None:
        self.seed = seed
        self.path = path

    def __getattr__(self, name: str):
        # Only the unset _rand and random slots land here.  Seeding
        # random.Random is most of a spawn's cost, and many streams are
        # only spawned from, so the generator is built on the first draw.
        if name == "random":
            rand = self.random = self._rand.random
            return rand
        if name != "_rand":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        material = repr((self.seed, self.path)).encode()
        rand = self._rand = random.Random(
            int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
        )
        return rand

    def spawn(self, index: int) -> "RngState":
        """Independent child stream for trial `index` (same seed, longer path)."""
        return RngState(self.seed, self.path + (index,))

    def randrange(self, n: int) -> int:
        return self._rand.randrange(n)

    def bit(self) -> int:
        return self._rand.getrandbits(1)

    def bytes(self, n: int) -> bytes:
        return self._rand.getrandbits(8 * n).to_bytes(n, "big") if n else b""

    def bits(self, n: int) -> list[int]:
        """n independent fair bits, as n calls of ``getrandbits(1)`` give them.

        Each such call returns the top bit of one 32-bit word, and one
        ``getrandbits(32 * n)`` fills its n words least significant first,
        so byte 3 of each little-endian 4-byte group holds that top bit.
        """
        if n <= 0:
            return []
        words = self._rand.getrandbits(32 * n).to_bytes(4 * n, "little")
        return list(words[3::4].translate(_TOP_BIT))

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, path={self.path})"
