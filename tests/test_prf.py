import hashlib
import math

import pytest

from stegomail import (BitFunction, ConfigError, Counter, CounterError,
                       Document, Key, RngState, eval_bit, eval_bit_sync,
                       eval_bit_tuple)
from stegomail.prf import encode_doc, encode_sync_run, encode_tuple

from conftest import encode_sync


def test_eval_bit_deterministic(keyed_fn):
    d = Document(42)
    assert eval_bit(keyed_fn, d) == eval_bit(keyed_fn, d)
    oracle = BitFunction.random_oracle(7)
    assert eval_bit(oracle, d) == eval_bit(oracle, d)


def test_random_oracle_is_fair():
    oracle = BitFunction.random_oracle(11)
    ones = sum(eval_bit(oracle, Document(i)) for i in range(10_000))
    assert abs(ones / 10_000 - 0.5) <= 0.02


def test_distinct_keys_agree_half_the_time():
    fn_a = BitFunction.keyed(Key.from_hex("00" * 16))
    fn_b = BitFunction.keyed(Key.from_hex("ff" * 16))
    agree = sum(eval_bit(fn_a, Document(i)) == eval_bit(fn_b, Document(i))
                for i in range(1_000))
    assert abs(agree / 1_000 - 0.5) <= 0.05


def test_eval_bit_sync_deterministic(keyed_fn):
    c = Counter(5)
    assert eval_bit_sync(keyed_fn, c, 3) == eval_bit_sync(keyed_fn, c, 3)
    assert c.value == 5  # evaluation never advances the counter


def test_oracle_counter_neighbours_independent():
    oracle = BitFunction.random_oracle(13)
    bits = [eval_bit_sync(oracle, Counter(n), 0) for n in range(10_001)]
    agree = sum(bits[n] == bits[n + 1] for n in range(10_000))
    assert abs(agree / 10_000 - 0.5) <= 0.02


def test_keyed_sync_sequence_passes_monobit_test(keyed_fn):
    # two-sided frequency test at significance 0.01
    n = 10_000
    ones = sum(eval_bit_sync(keyed_fn, Counter(i), 9) for i in range(n))
    assert abs(ones - n / 2) <= 2.576 * math.sqrt(n) / 2


def test_tuple_bit_repeatable_and_fair(keyed_fn):
    t = (Document(1), Document(2), Document(3))
    assert eval_bit_tuple(keyed_fn, t) == eval_bit_tuple(keyed_fn, t)
    rng = RngState(17)
    ones = 0
    for _ in range(10_000):
        docs = tuple(Document(rng.randrange(2 ** 16)) for _ in range(3))
        ones += eval_bit_tuple(keyed_fn, docs)
    assert abs(ones / 10_000 - 0.5) <= 0.02


def test_tuple_order_matters():
    oracle = BitFunction.random_oracle(19)
    a, b = Document(1), Document(2)
    assert encode_tuple([a, b]) != encode_tuple([b, a])
    # Tag, then per element a 4-byte length and the 8-byte big-endian id.
    assert encode_tuple([a, Document(2 ** 64 - 1)]) == (
        b"F3" b"\x00\x00\x00\x08" b"\x00\x00\x00\x00\x00\x00\x00\x01"
        b"\x00\x00\x00\x08" b"\xff\xff\xff\xff\xff\xff\xff\xff")
    agree = 0
    for i in range(0, 4_000, 2):
        x, y = Document(i), Document(i + 1)
        agree += eval_bit_tuple(oracle, [x, y]) == eval_bit_tuple(oracle, [y, x])
    assert abs(agree / 2_000 - 0.5) <= 0.05


def test_tuple_requires_documents(keyed_fn):
    with pytest.raises(ConfigError):
        eval_bit_tuple(keyed_fn, [])


def test_sync_encoding_injective_exhaustive():
    seen = {encode_sync(n, Document(i))
            for n in range(256) for i in range(256)}
    assert len(seen) == 256 * 256


def test_tuple_encoding_injective_exhaustive():
    docs = [Document(i) for i in range(32)]
    encodings = set()
    total = 0
    for d in docs:
        encodings.add(encode_tuple([d]))
        total += 1
    for d1 in docs:
        for d2 in docs:
            encodings.add(encode_tuple([d1, d2]))
            total += 1
    assert len(encodings) == total


def test_encoding_families_disjoint():
    d = Document(1)
    # singleton tuples collapse onto the bare-document signature by design
    assert encode_tuple([d]) == encode_doc(d)
    assert encode_tuple([d, d])[:2] not in (encode_doc(d)[:2], encode_sync(0, d)[:2])
    assert encode_doc(d)[:2] != encode_sync(0, d)[:2]


def test_random_oracle_consistent_across_interleavings():
    oracle = BitFunction.random_oracle(23)
    docs = [Document(i) for i in range(50)]
    first = {d.id: eval_bit(oracle, d) for d in docs}
    for d in reversed(docs):
        assert eval_bit(oracle, d) == first[d.id]


def test_counter_advance_and_overflow():
    c = Counter(0)
    c.check_headroom(1)
    c.value += 1
    assert c.value == 1
    c = Counter(2 ** 64 - 2)
    c.check_headroom(1)
    c.value += 1
    assert c.value == 2 ** 64 - 1
    with pytest.raises(CounterError):
        c.check_headroom(1)


def test_counter_validation():
    with pytest.raises(ConfigError):
        Counter(2 ** 64)
    with pytest.raises(ConfigError):
        Counter(-1)
    # Both passed the range check and reached the PRF: 1.5 failed there
    # with an AttributeError, True was encoded as 1.
    for bad, name in ((1.5, "float"), (True, "bool"), ("1", "str")):
        with pytest.raises(ConfigError, match=f"^counter value must be an int, not {name}$"):
            Counter(bad)


def test_key_validation_and_generation():
    with pytest.raises(ConfigError):
        Key(b"short")
    with pytest.raises(ConfigError):
        Key.from_hex("zz")
    key = Key.generate(RngState(3))
    assert key.bit_length == 128
    assert Key.generate(RngState(3)) == key


# The counter is 8 bytes wide; `low_bits` picks values up to the top of its
# low byte, its low two bytes and the whole width.
@pytest.mark.parametrize("low_bits", [8, 16, 64])
@pytest.mark.parametrize("mode", ["keyed", "random_oracle"])
def test_eval_bit_sync_matches_reference_encoding(low_bits, mode):
    # Two twin functions: one answers through eval_bit_sync, the other
    # through fn.bit on encode_sync, so a wrong input or a coin spent out
    # of order shows in the bits, in the oracle's table or in its next coin.
    def make():
        if mode == "keyed":
            return BitFunction.keyed(Key.from_hex("000102030405060708090a0b0c0d0e0f"))
        return BitFunction.random_oracle(41)
    fn, ref = make(), make()
    top = (1 << low_bits) - 1
    docs = [Document(0), Document(7), Document(2 ** 40 + 3), Document(2 ** 64 - 1)]
    values = (0, 1, 255, top // 2, top, 2 ** 64 - 2)
    for value in values + values:  # the second pass repeats every input
        c = Counter(value)
        for d in docs:
            assert eval_bit_sync(fn, c, d.id) == ref.bit(encode_sync(c.value, d))
    assert fn.table == ref.table
    if mode == "random_oracle":
        assert len(fn.table) == len(set(values)) * len(docs)
        assert fn._coins.getrandbits(64) == ref._coins.getrandbits(64)


def test_keyed_bit_matches_one_shot_blake2b():
    key = Key.from_hex("0f" * 16)
    fn = BitFunction.keyed(key)
    for i in range(256):
        data = encode_sync(i, Document(i))
        expected = hashlib.blake2b(data, digest_size=1, key=key.data).digest()[0] & 1
        assert fn.bit(data) == expected


@pytest.mark.parametrize("fn", [
    BitFunction.keyed(Key.from_hex("000102030405060708090a0b0c0d0e0f")),
    BitFunction.random_oracle(5),
], ids=["keyed", "random_oracle"])
def test_eval_bit_matches_reference_encoding(fn):
    docs = [Document(i) for i in range(256)] + [
        Document(2 ** 63), Document(2 ** 64 - 1)]
    bits = [eval_bit(fn, d) for d in docs]
    assert bits == [fn.bit(encode_doc(d)) for d in docs]
    assert 0 < sum(bits) < len(bits)


@pytest.mark.parametrize("mode", ["keyed", "random_oracle"])
def test_bits_matches_per_input_bit(mode):
    def make():
        if mode == "keyed":
            return BitFunction.keyed(Key.from_hex("000102030405060708090a0b0c0d0e0f"))
        return BitFunction.random_oracle(43)
    rng = RngState(43)
    inputs = [encode_sync(rng.randrange(4), Document(rng.randrange(8)))
              for _ in range(300)]
    assert len(set(inputs)) < len(inputs)  # repeated inputs included
    batched, single = make(), make()
    bits = batched.bits(inputs)
    assert bits == [single.bit(x) for x in inputs]
    assert 0 < sum(bits) < len(bits)
    assert batched.bits([]) == []
    if mode == "random_oracle":
        assert batched.table == single.table
        assert batched._coins.random() == single._coins.random()


# The last run ends at the top of the counter's low byte, its low two bytes
# or its whole 8-byte width.
@pytest.mark.parametrize("low_bytes", [1, 2, 8])
def test_encode_sync_run_matches_encode_sync(low_bytes):
    docs = [Document(0), Document(7), Document(7), Document(2 ** 64 - 1), Document(3)]
    ids = [d.id for d in docs]
    for value in (0, 1, (1 << (8 * low_bytes)) - len(docs)):
        assert encode_sync_run(value, ids) == [
            encode_sync(value + k, d) for k, d in enumerate(docs)]
    # The top run: the last two counter values a document can carry.
    assert encode_sync_run(2 ** 64 - 2, ids[2:4]) == [
        encode_sync(2 ** 64 - 2, docs[2]), encode_sync(2 ** 64 - 1, docs[3])]
    assert encode_sync_run(5, []) == []
