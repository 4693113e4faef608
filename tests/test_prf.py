import hashlib
import math

import pytest

from stegomail import (BitFunction, ConfigError, Counter, CounterError,
                       Document, Key, RngState, eval_bit, eval_bit_sync,
                       eval_bit_tuple)
from stegomail.prf import encode_doc, encode_sync, encode_tuple


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
    d = Document(3)
    assert eval_bit_sync(keyed_fn, c, d) == eval_bit_sync(keyed_fn, c, d)
    assert c.value == 5  # evaluation never advances the counter


def test_oracle_counter_neighbours_independent():
    oracle = BitFunction.random_oracle(13)
    d = Document(0)
    bits = [eval_bit_sync(oracle, Counter(n), d) for n in range(10_001)]
    agree = sum(bits[n] == bits[n + 1] for n in range(10_000))
    assert abs(agree / 10_000 - 0.5) <= 0.02


def test_keyed_sync_sequence_passes_monobit_test(keyed_fn):
    # two-sided frequency test at significance 0.01
    n = 10_000
    d = Document(9)
    ones = sum(eval_bit_sync(keyed_fn, Counter(i), d) for i in range(n))
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
    agree = 0
    for i in range(0, 4_000, 2):
        x, y = Document(i), Document(i + 1)
        agree += eval_bit_tuple(oracle, [x, y]) == eval_bit_tuple(oracle, [y, x])
    assert abs(agree / 2_000 - 0.5) <= 0.05


def test_tuple_requires_documents(keyed_fn):
    with pytest.raises(ConfigError):
        eval_bit_tuple(keyed_fn, [])


def test_sync_encoding_injective_exhaustive():
    width = Counter(0).byte_width
    seen = {encode_sync(n, width, Document(i))
            for n in range(256) for i in range(256)}
    assert len(seen) == 256 * 256


def test_tuple_encoding_injective_exhaustive():
    docs = [Document(i, payload) for i in range(16) for payload in (b"", b"\x00")]
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
    assert encode_tuple([d, d])[:2] not in (encode_doc(d)[:2], encode_sync(0, 8, d)[:2])
    assert encode_doc(d)[:2] != encode_sync(0, 8, d)[:2]


def test_random_oracle_consistent_across_interleavings():
    oracle = BitFunction.random_oracle(23)
    docs = [Document(i) for i in range(50)]
    first = {d.id: eval_bit(oracle, d) for d in docs}
    for d in reversed(docs):
        assert eval_bit(oracle, d) == first[d.id]


def test_counter_advance_and_overflow():
    c = Counter(0, n_bits=8)
    c.advance()
    assert c.value == 1
    c = Counter(254, n_bits=8)
    c.advance()
    assert c.value == 255
    with pytest.raises(CounterError):
        c.advance()


def test_counter_validation():
    with pytest.raises(ConfigError):
        Counter(0, n_bits=12)
    with pytest.raises(ConfigError):
        Counter(256, n_bits=8)
    with pytest.raises(ConfigError):
        Counter(-1)


def test_key_validation_and_generation():
    with pytest.raises(ConfigError):
        Key(b"short")
    with pytest.raises(ConfigError):
        Key.from_hex("zz")
    key = Key.generate(RngState(3), bits=128)
    assert key.bit_length == 128
    assert Key.generate(RngState(3), bits=128) == key


@pytest.mark.parametrize("n_bits", [8, 16, 64])
@pytest.mark.parametrize("mode", ["keyed", "random_oracle"])
def test_eval_bit_sync_matches_reference_encoding(n_bits, mode):
    if mode == "keyed":
        fn = BitFunction.keyed(Key.from_hex("000102030405060708090a0b0c0d0e0f"))
    else:
        fn = BitFunction.random_oracle(41)
    top = (1 << n_bits) - 1
    docs = [Document(0), Document(7), Document(2 ** 40 + 3, b"payload")]
    for value in (0, 1, 255, top // 2, top):
        c = Counter(value, n_bits=n_bits)
        for d in docs:
            assert eval_bit_sync(fn, c, d) == fn.bit(encode_sync(c.value, c.byte_width, d))


def test_keyed_bit_matches_one_shot_blake2b():
    key = Key.from_hex("0f" * 16)
    fn = BitFunction.keyed(key)
    for i in range(256):
        data = encode_sync(i, 8, Document(i, b"x" * (i % 5)))
        expected = hashlib.blake2b(data, digest_size=1, key=key.data).digest()[0] & 1
        assert fn.bit(data) == expected
