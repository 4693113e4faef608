from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stegomail import (ConfigError, ProtocolError, RngState, bits_from_bytes,
                       bits_from_hex, bytes_from_bits, dec, enc, hex_from_bits)


def test_enc_examples():
    assert enc([1], 5) == [1, 1, 1, 1, 1]
    assert enc([], 5) == []
    assert enc([1, 0], 3) == [1, 1, 1, 0, 0, 0]


def test_dec_majority():
    assert dec([1, 1, 0, 1, 1], 5) == [1]
    assert dec([0, 1, 0, 0, 1], 5) == [0]


def test_round_trip_exhaustive_up_to_12_bits():
    for length in range(13):
        for value in range(2 ** length):
            m = [(value >> i) & 1 for i in range(length)]
            assert dec(enc(m, 5), 5) == m


def test_even_repetition_rejected():
    with pytest.raises(ConfigError):
        enc([1], 2)
    with pytest.raises(ConfigError):
        dec([1, 1], 2)


def test_framing_error():
    with pytest.raises(ProtocolError):
        dec([1, 1, 1, 1], 5)


@given(st.lists(st.integers(0, 1), max_size=1000),
       st.sampled_from([1, 3, 5, 7]))
def test_round_trip_property(m, r):
    assert dec(enc(m, r), r) == m


def test_corrects_up_to_two_flips_per_block_exhaustive():
    for bit in (0, 1):
        block = enc([bit], 5)
        for pattern in product((0, 1), repeat=5):
            if sum(pattern) > 2:
                continue
            noisy = [b ^ f for b, f in zip(block, pattern)]
            assert dec(noisy, 5) == [bit]


def exact_majority_failure(r: int, flip_p: float) -> float:
    """Brute-force enumeration of all flip patterns on one block."""
    total = 0.0
    for pattern in product((0, 1), repeat=r):
        flips = sum(pattern)
        if flips > r // 2:
            total += flip_p ** flips * (1 - flip_p) ** (r - flips)
    return total


def test_failure_rate_matches_binomial_tail_oracle():
    oracle = exact_majority_failure(5, 0.25)
    assert oracle == 106 / 1024
    rng = RngState(31)
    failures = 0
    trials = 10_000
    for _ in range(trials):
        block = [1 if rng.random() < 0.25 else 0 for _ in range(5)]
        failures += dec(block, 5) == [1]  # all-zero block decoded wrong
    assert abs(failures / trials - oracle) <= 0.01


def test_bit_byte_hex_conversions():
    assert bits_from_bytes(b"\x80") == [1, 0, 0, 0, 0, 0, 0, 0]
    assert bits_from_bytes(b"\x01") == [0, 0, 0, 0, 0, 0, 0, 1]
    data = bytes(range(16))
    assert bytes_from_bits(bits_from_bytes(data)) == data
    assert bits_from_hex("a5") == [1, 0, 1, 0, 0, 1, 0, 1]
    assert hex_from_bits([1, 0, 1, 0, 0, 1, 0, 1]) == "a5"
    with pytest.raises(ProtocolError):
        bytes_from_bits([1, 0, 1])
    with pytest.raises(ConfigError):
        bits_from_hex("0g")


def _bits_from_bytes_loop(data: bytes) -> list[int]:
    """Reference: the per-bit unpacking loop."""
    out = []
    for byte in data:
        for shift in range(7, -1, -1):
            out.append((byte >> shift) & 1)
    return out


def _bytes_from_bits_loop(bits) -> bytes:
    """Reference: the per-bit packing loop; only each value's low bit counts."""
    out = bytearray()
    for i in range(0, len(bits), 8):
        byte = 0
        for b in bits[i:i + 8]:
            byte = (byte << 1) | (b & 1)
        out.append(byte)
    return bytes(out)


@pytest.mark.parametrize("size", [0, *range(1, 65), 2048])
def test_codecs_match_the_per_bit_loops(size):
    data = RngState(size).bytes(size)
    bits = bits_from_bytes(data)
    assert bits == _bits_from_bytes_loop(data)
    assert bytes_from_bits(bits) == _bytes_from_bits_loop(bits) == data
    # Values other than 0 and 1 pack by their low bit: 2 and 3 (inside a
    # byte's range), then -1 and -2 (outside it).
    rng = RngState(size, (1,))
    for step in (2, -2):
        noisy = [b + step * rng.randrange(2) for b in bits]
        assert bytes_from_bits(noisy) == _bytes_from_bits_loop(noisy) == data
    with pytest.raises(ProtocolError, match="not a multiple of 8"):
        bytes_from_bits(bits + [1])
