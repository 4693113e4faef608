"""Repetition code with majority decoding, plus bit/byte/hex conversions.

The repetition factor must be odd so majority votes cannot tie.  The
default factor of 5 matches the rate arithmetic of the synchronized
two-draw system it protects (5 documents per message bit).
"""

from __future__ import annotations

from typing import Sequence

from .errors import ConfigError, ProtocolError, _quote


def _check_repetition(r: int) -> None:
    if r < 1 or r % 2 == 0:
        raise ConfigError(f"repetition factor must be odd and >= 1, got {r}")


def enc(bits: Sequence[int], r: int = 5) -> list[int]:
    """Repeat each bit r times, preserving order."""
    _check_repetition(r)
    out: list[int] = []
    for b in bits:
        out.extend([b] * r)
    return out


def dec(bits: Sequence[int], r: int = 5) -> list[int]:
    """Majority-decode blocks of r bits; inverse of enc on clean input."""
    _check_repetition(r)
    if len(bits) % r:
        raise ProtocolError(
            f"coded length {len(bits)} is not a multiple of repetition factor {r}")
    return [1 if sum(bits[i:i + r]) > r // 2 else 0 for i in range(0, len(bits), r)]


# Byte-wide tables for the codecs: ASCII "0"/"1" to bit values, and any
# byte value to the ASCII digit of its low bit.
_BIT_VALUE = bytes.maketrans(b"01", b"\x00\x01")
_LOW_BIT_DIGIT = b"01" * 128


def bits_from_bytes(data: bytes) -> list[int]:
    """Unpack bytes to bits, most significant bit of each byte first."""
    if not data:
        return []
    digits = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")
    return list(digits.encode().translate(_BIT_VALUE))


def bytes_from_bits(bits: Sequence[int]) -> bytes:
    """Pack bits (MSB first per byte) back into bytes.

    Only each value's low bit counts (``b & 1``), as when packing by
    shifts: 2 packs as 0, and 3 and -1 pack as 1.
    """
    if len(bits) % 8:
        raise ProtocolError(f"bit count {len(bits)} is not a multiple of 8")
    if not bits:
        return b""
    try:
        raw = bytearray(bits)
    except ValueError:  # a value outside 0..255
        raw = bytearray(b & 1 for b in bits)
    return int(raw.translate(_LOW_BIT_DIGIT), 2).to_bytes(len(bits) // 8, "big")


def bits_from_hex(text: str) -> list[int]:
    compact = "".join(text.split())
    try:
        return bits_from_bytes(bytes.fromhex(compact))
    except ValueError as e:
        raise ConfigError(f"not valid hex: {_quote(text)}") from e


def hex_from_bits(bits: Sequence[int]) -> str:
    return bytes_from_bits(bits).hex()
