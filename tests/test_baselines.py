import hashlib
import random
import time
import tracemalloc
from dataclasses import astuple
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stegomail import (BitFunction, ChannelSpec, ConfigError, Counter,
                       CounterError, EmbedStats, Key, Mail,
                       ProtocolError, RngState, eval_bit, eval_bit_sync,
                       eval_bit_tuple, load_channel_file,
                       p1_embed, p2_embed, s1_embed, s1_extract, s2_embed,
                       s2_extract, s3_embed, s3_extract, s4_embed, s4_extract)
from stegomail.channel import sample_id
from stegomail.protocols import P1_ARRAYS
from stegomail.security import SystemConfig, ct_oracle, embed_message, extract_message

from conftest import TEST_CHANNELS, find_key_where, point_mass

UNIFORM_2_16 = ChannelSpec.uniform(2 ** 16)
CHANNEL_DIR = Path(__file__).resolve().parent.parent / "channels"


def two_draw_match_probability(p_match: float) -> float:
    """Enumeration oracle for the budget-2 rejection sampler.

    Walks every (draw1-class, draw2-class) outcome and accumulates the
    probability that the emitted document lies in the matching class.
    """
    total = 0.0
    for first_matches, second_matches in product((True, False), repeat=2):
        weight = ((p_match if first_matches else 1 - p_match)
                  * (p_match if second_matches else 1 - p_match))
        emitted_matches = first_matches or second_matches
        if emitted_matches:
            total += weight
    return total


def majority_failure(copies: int, per_copy: float) -> float:
    """Enumeration oracle: majority of `copies` votes wrong at rate per_copy."""
    total = 0.0
    for pattern in product((0, 1), repeat=copies):
        wrong = sum(pattern)
        if wrong > copies // 2:
            total += per_copy ** wrong * (1 - per_copy) ** (copies - wrong)
    return total


# --- s1 ---------------------------------------------------------------------

def test_s1_rs_point_mass_immediate_match():
    spec = point_mass(4)
    key = find_key_where(lambda fn: eval_bit(fn, 0) == 1)
    stats = EmbedStats()
    [doc] = s1_embed(BitFunction.keyed(key), [1], spec, RngState(1),
                     count=128, stats=stats)
    assert doc == 0
    assert stats.samples_drawn == 1


def test_s1_rs_point_mass_mismatch_exhausts_budget():
    spec = point_mass(4)
    key = find_key_where(lambda fn: eval_bit(fn, 0) == 0)
    stats = EmbedStats()
    [doc] = s1_embed(BitFunction.keyed(key), [1], spec, RngState(1),
                     count=7, stats=stats)
    assert doc == 0
    assert stats.samples_drawn == 7


def test_s1_rs_two_doc_distribution_matches_enumeration_oracle():
    spec = ChannelSpec.uniform(2)
    key = find_key_where(lambda fn: eval_bit(fn, 0) == 0
                         and eval_bit(fn, 1) == 1)
    fn = BitFunction.keyed(key)
    oracle = two_draw_match_probability(0.5)
    assert oracle == 0.75
    rng = RngState(3)
    hits = sum(s1_embed(fn, [1], spec, rng, count=2) == [1]
               for _ in range(10_000))
    assert abs(hits / 10_000 - oracle) <= 0.02


def test_s1_round_trip_on_large_channel():
    rng = RngState(5)
    for trial in range(1_000):
        trial_rng = rng.spawn(trial)
        fn = BitFunction.keyed(Key.generate(trial_rng.spawn(0)))
        m = trial_rng.spawn(1).bits(64)
        docs = s1_embed(fn, m, UNIFORM_2_16, trial_rng.spawn(2))
        assert s1_extract(fn, docs) == m


def test_s1_point_mass_failure_regime():
    spec = point_mass(4)
    key = find_key_where(lambda fn: eval_bit(fn, 0) == 1)
    fn = BitFunction.keyed(key)
    reachable = s1_embed(fn, [1, 1, 1], spec, RngState(7), count=8)
    assert s1_extract(fn, reachable) == [1, 1, 1]
    # a zero bit cannot be represented: extraction is forced wrong
    forced = s1_embed(fn, [0], spec, RngState(7), count=8)
    assert s1_extract(fn, forced) == [1]


def test_s1_stats_one_doc_per_bit():
    stats = EmbedStats()
    fn = BitFunction.random_oracle(9)
    docs = s1_embed(fn, [0, 1] * 8, UNIFORM_2_16, RngState(9),
                    count=128, stats=stats)
    assert stats.bits_embedded == 16
    assert stats.docs_emitted == len(docs) == 16
    assert 16 <= stats.samples_drawn <= 16 * 128


def _s1_embed_per_draw(fn, m, spec, rng, count, prev=None):
    """Reference s1: one sample_id and one eval_bit for every draw."""
    docs = []
    draws = 0
    for bit in m:
        for n in range(1, count + 1):
            doc = sample_id(spec, prev, rng)
            if eval_bit(fn, doc) == bit:
                break
        draws += n
        prev = doc
        docs.append(doc)
    return docs, EmbedStats(draws, len(m), len(docs), draws)


MEMO_CHANNEL_FILES = ("binary", "point_mass4", "markov2", "uniform1024")
MEMO_SPECS = {name: load_channel_file(CHANNEL_DIR / f"{name}.json")
              for name in MEMO_CHANNEL_FILES}
# A memo that fills with more than two ids, and may leave one bit dead.
MEMO_SPECS["uniform3"] = ChannelSpec.uniform(3)
MEMO_CHANNELS = tuple(MEMO_SPECS)


@pytest.mark.parametrize("fn_kind", ["keyed", "random"])
@pytest.mark.parametrize("count", [1, 2, 8, None])
@pytest.mark.parametrize("channel_name", MEMO_CHANNELS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       messages=st.lists(st.lists(st.integers(0, 1), max_size=40), min_size=1,
                         max_size=2),
       start=st.none() | st.integers(0, 1))
def test_s1_memo_matches_per_draw_loop(channel_name, count, fn_kind, seed,
                                       messages, start):
    # Both sides reuse one function across every message, so a random
    # oracle's table carries over from one embed to the next.
    spec = MEMO_SPECS[channel_name]

    def make_fn():
        return (BitFunction.keyed(Key(seed.to_bytes(16, "big")))
                if fn_kind == "keyed" else BitFunction.random_oracle(seed))

    fn, ref_fn = make_fn(), make_fn()
    rng, ref_rng = RngState(seed), RngState(seed)
    # Each message is conditioned on the last document sent before it.
    prev = start
    for m in messages:
        stats = EmbedStats()
        docs = s1_embed(fn, m, spec, rng, count=count, stats=stats, prev=prev)
        ref_docs, ref_stats = _s1_embed_per_draw(
            ref_fn, m, spec, ref_rng, 128 if count is None else count, prev)
        assert (docs, stats) == (ref_docs, ref_stats)
        prev = docs[-1] if docs else prev
        assert fn.table == ref_fn.table
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("prev", [None, 0])
@pytest.mark.parametrize("channel_name", MEMO_CHANNELS)
def test_s1_builds_one_document_per_distinct_id(channel_name, prev, documents_built):
    # At most one document per distinct id, and in fact none: the memo
    # hands each id on as a plain int, and the output still equals the
    # per-draw reference's.
    spec = MEMO_SPECS[channel_name]
    fn = BitFunction.keyed(Key(bytes(range(16))))
    m = RngState(3).bits(300)
    ref_docs, ref_stats = _s1_embed_per_draw(fn, m, spec, RngState(4), 16, prev)
    documents_built.clear()
    stats = EmbedStats()
    docs = s1_embed(fn, m, spec, RngState(4), count=16, stats=stats, prev=prev)
    assert (docs, stats) == (ref_docs, ref_stats)
    assert documents_built == []
    assert all(type(i) is int and 0 <= i < spec.alphabet_size for i in docs)


class CountingBitFunction(BitFunction):
    """A BitFunction that counts its hash (or oracle) calls."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls = 0

    def bit(self, data: bytes) -> int:
        self.calls += 1
        return super().bit(data)


@pytest.mark.parametrize("f1", [(0, 1), (1, 1)])
def test_s1_hashes_each_document_once_per_message(f1):
    # On the two-document channel only two F1 inputs exist; with F1 = 1 on
    # both, no draw can match the all-zero message and every bit spends
    # the whole budget.
    key = find_key_where(lambda fn: (eval_bit(fn, 0),
                                     eval_bit(fn, 1)) == f1)
    fn = CountingBitFunction.keyed(key)
    stats = EmbedStats()
    s1_embed(fn, [0] * 100, MEMO_SPECS["binary"], RngState(1),
             stats=stats)
    assert fn.calls <= 2
    assert stats.prf_evals == stats.samples_drawn >= 100
    if f1 == (1, 1):
        assert stats.samples_drawn == 100 * 128


@pytest.mark.parametrize("seed", [0, 1, 20260811])
@pytest.mark.parametrize("k", [0, 1, 2, 127, 1024, 1025])
def test_getrandbits_64k_spends_k_uniforms(k, seed):
    # s1 spends a dead bit's budget with getrandbits(64 * k) in place of k
    # random() calls, in chunks of 1024 uniforms, and calls getrandbits(0)
    # when a bit goes dead on its next-to-last draw.  Should a Python
    # release change how either consumes Mersenne-Twister words, this
    # fails rather than every s1 stream changing silently.
    spent, drawn = random.Random(seed), random.Random(seed)
    spent.getrandbits(64 * k)
    for _ in range(k):
        drawn.random()
    assert spent.getstate() == drawn.getstate()
    assert spent.random() == drawn.random()


class CountingRandom(random.Random):
    """A random.Random that counts its random() calls."""

    calls = 0

    def random(self) -> float:
        self.calls += 1
        return super().random()


@pytest.mark.parametrize("bits,count", [(100, 1), (100, 128), (10, 1026), (10, 5000)])
def test_s1_spends_a_dead_bits_budget_in_one_step(bits, count):
    # F1 = 1 on both documents, so no draw can match a zero bit: after the
    # memo fills, each bit costs one random() call while still counting
    # its whole budget.  A budget of 1 spends nothing, and 1026 spends
    # 1025 uniforms per bit, across a chunk.
    key = find_key_where(lambda fn: (eval_bit(fn, 0),
                                     eval_bit(fn, 1)) == (1, 1))
    fn = BitFunction.keyed(key)
    spec = MEMO_SPECS["binary"]
    rng, ref_rng = RngState(1), RngState(1)
    rng._rand = CountingRandom()
    rng._rand.setstate(ref_rng._rand.getstate())
    stats = EmbedStats()
    start = time.perf_counter()
    docs = s1_embed(fn, [0] * bits, spec, rng, count=count,
                    stats=stats)
    elapsed = time.perf_counter() - start
    ref_docs, ref_stats = _s1_embed_per_draw(fn, [0] * bits, spec, ref_rng, count)
    assert rng._rand.calls <= bits + 10
    assert stats.samples_drawn == stats.prf_evals == bits * count
    assert (docs, stats) == (ref_docs, ref_stats)
    assert rng.random() == ref_rng.random()
    assert elapsed < 1.0


# --- s2 ---------------------------------------------------------------------

def test_s2_per_bit_failure_quarter_on_large_channel():
    fn = BitFunction.random_oracle(11)
    rng = RngState(11)
    counter_tx, counter_rx = Counter(), Counter()
    m = rng.spawn(0).bits(10_000)
    docs = s2_embed(fn, counter_tx, m, UNIFORM_2_16, rng.spawn(1),
                    repetition=1)
    got = s2_extract(fn, counter_rx, docs, repetition=1)
    errors = sum(a != b for a, b in zip(m, got))
    assert abs(errors / len(m) - 0.25) <= 0.02


def test_s2_repetition_five_failure_matches_binomial_tail():
    oracle = majority_failure(5, 0.25)
    assert oracle == 106 / 1024
    fn = BitFunction.random_oracle(13)
    rng = RngState(13)
    m = rng.spawn(0).bits(10_000)
    docs = s2_embed(fn, Counter(), m, UNIFORM_2_16, rng.spawn(1),
                    repetition=5)
    assert len(docs) == 5 * len(m)
    got = s2_extract(fn, Counter(), docs, repetition=5)
    errors = sum(a != b for a, b in zip(m, got))
    assert abs(errors / len(m) - oracle) <= 0.01


def test_s2_point_mass_failure_half():
    fn = BitFunction.random_oracle(15)
    rng = RngState(15)
    spec = point_mass(4)
    m = rng.spawn(0).bits(10_000)
    docs = s2_embed(fn, Counter(), m, spec, rng.spawn(1), repetition=1)
    got = s2_extract(fn, Counter(), docs, repetition=1)
    errors = sum(a != b for a, b in zip(m, got))
    assert abs(errors / len(m) - 0.5) <= 0.02


def test_s2_counter_desync_gives_garbage():
    fn = BitFunction.random_oracle(17)
    rng = RngState(17)
    m = rng.spawn(0).bits(2_000)
    docs = s2_embed(fn, Counter(0), m, UNIFORM_2_16, rng.spawn(1),
                    repetition=1)
    got = s2_extract(fn, Counter(1), docs, repetition=1)
    errors = sum(a != b for a, b in zip(m, got))
    assert abs(errors / len(m) - 0.5) <= 0.05


def test_s2_counter_discipline_and_stats():
    fn = BitFunction.random_oracle(19)
    counter = Counter(0)
    stats = EmbedStats()
    m = [1, 0, 1]
    docs = s2_embed(fn, counter, m, UNIFORM_2_16, RngState(19),
                    repetition=5, stats=stats)
    assert counter.value == 15
    assert stats.docs_emitted == 15
    assert stats.bits_embedded == 3
    assert 15 <= stats.samples_drawn <= 30
    rx = Counter(0)
    s2_extract(fn, rx, docs, repetition=5)
    assert rx.value == 15


# --- s3 ---------------------------------------------------------------------

def test_s3_with_one_copy_is_exactly_s1():
    fn = BitFunction.random_oracle(21)
    m = RngState(21).bits(64)
    docs_s3 = s3_embed(fn, m, UNIFORM_2_16, RngState(33), copies=1,
                       count=16)
    docs_s1 = s1_embed(fn, m, UNIFORM_2_16, RngState(33), count=16)
    assert docs_s3 == docs_s1
    assert s3_extract(fn, docs_s3, copies=1) == s1_extract(fn, docs_s1)


def test_s3_round_trip_small_alphabet():
    rng = RngState(23)
    for trial in range(1_000):
        trial_rng = rng.spawn(trial)
        fn = BitFunction.random_oracle(
            int.from_bytes(trial_rng.spawn(0).bytes(8), "big"))
        m = trial_rng.spawn(1).bits(32)
        docs = s3_embed(fn, m, ChannelSpec.uniform(256),
                        trial_rng.spawn(2), copies=2, count=128)
        assert s3_extract(fn, docs, copies=2) == m


def test_s3_point_mass_success_rate_is_a_coin_flip():
    # On a point-mass channel every tuple is identical, so retries cannot
    # change the tuple's bit and each message bit survives with prob 1/2.
    spec = point_mass(4)
    rng = RngState(25)
    successes = 0
    trials = 1_000
    for trial in range(trials):
        trial_rng = rng.spawn(trial)
        fn = BitFunction.random_oracle(
            int.from_bytes(trial_rng.spawn(0).bytes(8), "big"))
        m = [trial_rng.spawn(1).bits(1)[0]]
        docs = s3_embed(fn, m, spec, trial_rng.spawn(2), copies=8,
                        count=128)
        successes += s3_extract(fn, docs, copies=8) == m
    rate = successes / trials
    print(f"s3 point-mass per-bit round-trip success (copies=8): {rate:.3f}")
    assert abs(rate - 0.5) <= 0.05


def test_s3_framing_error():
    fn = BitFunction.random_oracle(27)
    with pytest.raises(ProtocolError):
        s3_extract(fn, [0] * 5, copies=2)


def test_s3_stats_bounds():
    fn = BitFunction.random_oracle(29)
    stats = EmbedStats()
    m = RngState(29).bits(20)
    s3_embed(fn, m, ChannelSpec.uniform(256), RngState(30),
             copies=3, count=64, stats=stats)
    assert stats.docs_emitted == 3 * 20
    assert 3 * 20 <= stats.samples_drawn <= 64 * 3 * 20


# --- s4 ---------------------------------------------------------------------

def test_s4_single_copy_failure_quarter():
    rng = RngState(31)
    failures = 0
    trials = 10_000
    fn = BitFunction.random_oracle(31)
    counter_tx, counter_rx = Counter(), Counter()
    for trial in range(trials):
        m = trial % 2
        docs = s4_embed(fn, counter_tx, [m], UNIFORM_2_16,
                        rng.spawn(trial), copies=1)
        failures += s4_extract(fn, counter_rx, docs, copies=1) != [m]
    assert abs(failures / trials - 0.25) <= 0.02


def test_s4_five_copies_failure_matches_binomial_tail():
    oracle = majority_failure(5, 0.25)
    rng = RngState(33)
    fn = BitFunction.random_oracle(33)
    counter_tx, counter_rx = Counter(), Counter()
    failures = 0
    trials = 10_000
    for trial in range(trials):
        m = trial % 2
        docs = s4_embed(fn, counter_tx, [m], UNIFORM_2_16,
                        rng.spawn(trial), copies=5)
        failures += s4_extract(fn, counter_rx, docs, copies=5) != [m]
    assert abs(failures / trials - oracle) <= 0.01


def test_s4_symmetric_in_message_bit():
    rng = RngState(35)
    fn = BitFunction.random_oracle(35)
    rates = []
    for m in (0, 1):
        counter_tx, counter_rx = Counter(), Counter()
        failures = 0
        for trial in range(4_000):
            docs = s4_embed(fn, counter_tx, [m], UNIFORM_2_16,
                            rng.spawn(10_000 * m + trial), copies=3)
            failures += s4_extract(fn, counter_rx, docs, copies=3) != [m]
        rates.append(failures / 4_000)
    assert abs(rates[0] - rates[1]) <= 0.02


def test_s4_requires_odd_copies():
    fn = BitFunction.random_oracle(37)
    with pytest.raises(ConfigError):
        s4_embed(fn, Counter(), [1], UNIFORM_2_16, RngState(37),
                 copies=2)
    with pytest.raises(ConfigError):
        s4_extract(fn, Counter(), [0] * 2, copies=2)


def test_s2_names_its_factor_as_a_repetition_factor_and_s4_as_copies():
    fn = BitFunction.random_oracle(37)
    docs = [0] * 2
    factor = "^repetition factor must be odd and >= 1, got 2$"
    with pytest.raises(ConfigError, match=factor):
        s2_extract(fn, Counter(), docs, repetition=2)
    with pytest.raises(ConfigError, match=factor):
        s2_embed(fn, Counter(), [1], UNIFORM_2_16, RngState(37), repetition=2)
    with pytest.raises(ConfigError, match="^copies per bit must be odd and >= 1, got 2$"):
        s4_extract(fn, Counter(), docs, copies=2)


def test_s4_stats_and_counter_discipline():
    fn = BitFunction.random_oracle(39)
    counter = Counter(0)
    stats = EmbedStats()
    docs = s4_embed(fn, counter, [1, 0], UNIFORM_2_16, RngState(39),
                    copies=3, stats=stats)
    assert counter.value == 6
    assert stats.samples_drawn == 2 * 3 * 2  # exactly two draws per copy
    assert stats.docs_emitted == len(docs) == 6
    assert stats.bits_embedded == 2
    rx = Counter(0)
    s4_extract(fn, rx, docs, copies=3)
    assert rx.value == 6


def test_s4_round_trip_aligned_counters():
    fn = BitFunction.random_oracle(41)
    rng = RngState(41)
    m = rng.spawn(0).bits(400)
    docs = s4_embed(fn, Counter(123), m, UNIFORM_2_16, rng.spawn(1),
                    copies=5)
    got = s4_extract(fn, Counter(123), docs, copies=5)
    errors = sum(a != b for a, b in zip(m, got))
    # aligned counters leave ~10% per-bit failure; a desync would give ~50%
    assert abs(errors / 400 - majority_failure(5, 0.25)) <= 0.05
    desynced = s4_extract(fn, Counter(124), docs, copies=5)
    desync_errors = sum(a != b for a, b in zip(m, desynced))
    assert desync_errors / 400 > 0.3


NEAR_TOP = (1 << 64) - 3


@pytest.mark.parametrize("system", ["s2", "s4"])
def test_embed_without_counter_headroom_mutates_nothing(system):
    # s2 needs 5 counter values for one bit (r=5), s4 6 for two bits (t=3).
    fn = BitFunction.random_oracle(45)
    counter = Counter(NEAR_TOP)
    rng, twin = RngState(45), RngState(45)
    stats = EmbedStats()
    with pytest.raises(CounterError):
        if system == "s2":
            s2_embed(fn, counter, [1], UNIFORM_2_16, rng, repetition=5, stats=stats,
                     prev=1)
        else:
            s4_embed(fn, counter, [1, 0], UNIFORM_2_16, rng, copies=3, stats=stats,
                     prev=1)
    assert counter.value == NEAR_TOP
    assert rng.random() == twin.random()
    assert stats == EmbedStats()


@pytest.mark.parametrize("extract", [s2_extract, s4_extract])
def test_extract_without_counter_headroom_leaves_counter(extract):
    fn = BitFunction.random_oracle(47)
    counter = Counter(NEAR_TOP)
    with pytest.raises(CounterError):
        extract(fn, counter, [0] * 3, 3)
    assert counter.value == NEAR_TOP
    assert len(extract(fn, counter, [0], 1)) == 1
    assert counter.value == NEAR_TOP + 1


@pytest.mark.parametrize("extract", [s2_extract, s4_extract])
def test_extract_framing_error_leaves_counter(extract):
    fn = BitFunction.random_oracle(49)
    counter = Counter(5)
    with pytest.raises(ProtocolError):
        extract(fn, counter, [0] * 4, 3)
    with pytest.raises(ConfigError):
        extract(fn, counter, [0] * 4, 2)
    assert counter.value == 5


@pytest.mark.parametrize("mode", ["keyed", "random_oracle"])
def test_extractors_match_per_document_calls(mode):
    # The batched extractors against one PRF call per document (or tuple),
    # each with its own counter value; repeated documents included.  The
    # random oracle must spend its coins in the same order.
    def make():
        if mode == "keyed":
            return BitFunction.keyed(Key.from_hex("000102030405060708090a0b0c0d0e0f"))
        return BitFunction.random_oracle(53)
    rng = RngState(53)
    docs = [rng.randrange(6) for _ in range(45)]
    v = 250
    fn, ref = make(), make()
    counter = Counter(v)
    assert s2_extract(fn, counter, docs, repetition=1) == [
        eval_bit_sync(ref, v + k, d) for k, d in enumerate(docs)]
    assert counter.value == v + len(docs)
    assert s4_extract(fn, counter, docs, copies=1) == [
        eval_bit_sync(ref, v + len(docs) + k, d) for k, d in enumerate(docs)]
    assert counter.value == v + 2 * len(docs)
    assert s1_extract(fn, docs) == [eval_bit(ref, d) for d in docs]
    assert s3_extract(fn, docs, copies=3) == [
        eval_bit_tuple(ref, docs[i:i + 3]) for i in range(0, len(docs), 3)]
    if mode == "random_oracle":
        assert fn.table == ref.table
        assert fn._coins.random() == ref._coins.random()


@pytest.mark.parametrize("cfg", [SystemConfig("s2", repetition=5), SystemConfig("s4", copies=5),
                                 SystemConfig("s3", copies=3)], ids=["s2", "s4", "s3"])
def test_extract_holds_few_bytes_per_message_bit(cfg):
    # The PRF inputs are encoded as they are evaluated and the coded bits
    # take one byte each; holding every F2 input at once came to 344 B per
    # message bit for s2, and the tuple encodings to 88 B for s3.  A keyed
    # function, since the random oracle's table keeps every input it saw.
    bits = 1 << 14
    rng = RngState(59)
    m = [rng.randrange(2) for _ in range(bits)]
    fn = BitFunction.keyed(Key.generate(rng))
    docs = embed_message(cfg, fn, m, ChannelSpec.uniform(1024), rng)
    tracemalloc.start()
    try:
        got = extract_message(cfg, fn, docs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(got) is list and len(got) == bits
    assert peak < 32 * bits, peak / bits


def test_zero_copies_is_a_config_error():
    fn = BitFunction.random_oracle(51)
    with pytest.raises(ConfigError):
        s3_extract(fn, [0] * 2, copies=0)
    with pytest.raises(ConfigError):
        s4_extract(fn, Counter(), [0] * 2, copies=0)
    with pytest.raises(ConfigError):
        s3_embed(fn, [1], UNIFORM_2_16, RngState(51), copies=0)
    with pytest.raises(ConfigError):
        s4_embed(fn, Counter(), [1], UNIFORM_2_16, RngState(51), copies=0)


def test_extraction_is_pure():
    fn = BitFunction.random_oracle(43)
    docs = s1_embed(fn, [1, 0, 1], UNIFORM_2_16, RngState(43))
    assert s1_extract(fn, docs) == s1_extract(fn, docs) == s1_extract(fn, iter(docs))
    docs2 = s2_embed(fn, Counter(), [1, 0], UNIFORM_2_16,
                     RngState(44), repetition=3)
    assert (s2_extract(fn, Counter(), docs2, repetition=3)
            == s2_extract(fn, Counter(), docs2, repetition=3))


# SHA-256 of _prior_run_transcript for every system, channel and function
# kind; recorded before the s1-s4 draw loops were shared, so a change to
# the draw order, the PRF inputs, the counter or the work counters shows.
GOLDEN_PRIOR_RUNS = {
    ("s1", "binary", "keyed"): "2f6d855306235bca90e96ab8f6329bcdc0dc76a8c9bfbc4713ce0887b3571abb",
    ("s1", "binary", "random"): "4b3d253b3d528c9aa0bec0c67ec290f81ddd90168d2277287ad7283835b37ef7",
    ("s1", "markov2", "keyed"): "35327db23144d98b7cfe46b224be4670a219485bd3f622654c6e3519e22e13ad",
    ("s1", "markov2", "random"): "e2111fc154214b837ee56932437a74e1b90270345ec4d065db0ad1d7fcde4c3a",
    ("s1", "uniform65536", "keyed"): "d87e279fdbe1290ee3e9362261267462df3c03549aaa7932dce8c3c0709062e1",
    ("s1", "uniform65536", "random"): "54c051d26f16c0f492b5348f1a9082049a29e1314bfb712e0dc1f84c852e47b0",
    ("s2", "binary", "keyed"): "cf7580906712dcd2caff4f258098d128bb1581ecc3f56f9dc889aa696975adf3",
    ("s2", "binary", "random"): "ef23c2e154d1e06441dfb4aa73ae9a7e0eca8efa84db5ea48d57342aae1e6b63",
    ("s2", "markov2", "keyed"): "7dab4dad86812aa922375389538bc708c295c360557d26427d1e082f1da3758a",
    ("s2", "markov2", "random"): "2b352e330d9d2dac8bd4966c55e4f3bc892e04c24ee00689136fe78e8046f994",
    ("s2", "uniform65536", "keyed"): "9b5e0ef478b7c90975f6bf0711f567c2da539f5f7194068a21d6b7a9037b468d",
    ("s2", "uniform65536", "random"): "3f31256de6c9534c41b2deadd25ebec8b20533bb4bf654346630b433090d284b",
    ("s3", "binary", "keyed"): "db7188c6e0da41ab7081353365fe6622ce0862475a3c480e9d453603e0e9089d",
    ("s3", "binary", "random"): "86181d6bb42118799fb67ef75278986101769cbe5de6fbf3e41a87a833270792",
    ("s3", "markov2", "keyed"): "f29c2a6a57fc737f378cffdaa10660674e215d3009e81646e4c0189e4b0e43a4",
    ("s3", "markov2", "random"): "0a4dadb5c08945e8626d46c67412442e19566795d30680aa9012d38d04bddc4c",
    ("s3", "uniform65536", "keyed"): "6d0f23cb068a5c1ab83266a98b7ac6ace749b315a034556c589798a4586d7c5f",
    ("s3", "uniform65536", "random"): "719ececdf64e06f4d51790a9047233f33dca8e270c409c01f265b9397c8d4915",
    ("s4", "binary", "keyed"): "86f54f3e1ac6469b5bc0dda6202ad1dff1f61bbc62cbda4ac48b5396e9420dcc",
    ("s4", "binary", "random"): "d2ee524ee1a6bf6a81e249fdb2b5dc071366c2a6951056c0c18dd7101f173bcd",
    ("s4", "markov2", "keyed"): "ef50bcf7423aa1673f4bd286bbc062ca5555838eeb2285fe9edb464a4a47ebb5",
    ("s4", "markov2", "random"): "11d010daeeb09bd5d0f8bb27448a7683b7f077f543b0d9c12a651973beece80b",
    ("s4", "uniform65536", "keyed"): "d709d4bd403090cd956b8092f49b0e23674d6497c6e07ba9a5dfb286a54ff37d",
    ("s4", "uniform65536", "random"): "6ebdcf591713203cd2c48f6cb9994dac927cc28864ebd359437ac974c79478ec",
}


def _prior_run_transcript(system: str, channel_name: str, fn_kind: str,
                          prev: int = 1) -> str:
    spec = (UNIFORM_2_16 if channel_name == "uniform65536"
            else load_channel_file(CHANNEL_DIR / f"{channel_name}.json"))
    fn = (BitFunction.keyed(Key.from_hex("000102030405060708090a0b0c0d0e0f"))
          if fn_kind == "keyed" else BitFunction.random_oracle(20260811))
    m = RngState(7).bits(40)
    rng = RngState(20260811)
    stats = EmbedStats()
    tx, rx = Counter(250), Counter(250)
    if system == "s1":
        docs = s1_embed(fn, m, spec, rng, stats=stats, prev=prev)
        got = s1_extract(fn, docs)
    elif system == "s2":
        docs = s2_embed(fn, tx, m, spec, rng, repetition=3, stats=stats, prev=prev)
        got = s2_extract(fn, rx, docs, repetition=3)
    elif system == "s3":
        docs = s3_embed(fn, m, spec, rng, copies=3, count=16, stats=stats, prev=prev)
        got = s3_extract(fn, docs, copies=3)
    else:
        docs = s4_embed(fn, tx, m, spec, rng, copies=3, stats=stats, prev=prev)
        got = s4_extract(fn, rx, docs, copies=3)
    ids = list(docs)
    # The pinned transcripts list the conditioning document before the
    # emitted ones, as the sender's whole history.
    return repr((ids, [prev] + ids, astuple(stats), got,
                 tx.value, rx.value, rng.random()))


@pytest.mark.parametrize("system, channel_name, fn_kind", sorted(GOLDEN_PRIOR_RUNS))
def test_prior_system_runs_are_pinned(system, channel_name, fn_kind):
    transcript = _prior_run_transcript(system, channel_name, fn_kind)
    digest = hashlib.sha256(transcript.encode()).hexdigest()
    assert digest == GOLDEN_PRIOR_RUNS[system, channel_name, fn_kind]


# The same transcripts on markov2 from document 0.  Its row 1 equals its
# initial vector, so a run from document 1 above draws as one from no
# document would; only a run from 0 shows that the embedders honour
# `prev`.  Recorded through a one-document history before the embedders
# took the id itself.
GOLDEN_PRIOR_RUNS_FROM_0 = {
    ("s1", "keyed"): "39596d9440150e0f802bb0446c6b5c7901a8697ce50c87d4a247d68e8f2988d0",
    ("s1", "random"): "bb5c3387609eee844f1ff2da0b08bcdb84d6d0262cad148074f4a3c3bc388d20",
    ("s2", "keyed"): "26de4113a9a93d1e1949302d5694b8d968961dec64e4c1da396855ef709e2291",
    ("s2", "random"): "8cc5060b0099d156f90c12df08fa6b6ccd03dc6938a3427d4444e65de5acb90d",
    ("s3", "keyed"): "c5ecb65971bd6a53c3e5e63081b288998a8c55115497205e619ef87a38122bf5",
    ("s3", "random"): "5bf66900cc3b91f1e767fcdcf5f40271c3927aa8b7f885c6a2a564e50bb8f7cc",
    ("s4", "keyed"): "d74700de530b96291441ca1eb1c8179d8e2d658df80364521536cd0c4ad5253c",
    ("s4", "random"): "e213f2524d0ab6811d70b128c7ed5f601f6420676e5c00f9fcd6c9fff1d6f41d",
}


@pytest.mark.parametrize("system, fn_kind", sorted(GOLDEN_PRIOR_RUNS_FROM_0))
def test_prior_system_runs_from_document_0_are_pinned(system, fn_kind):
    transcript = _prior_run_transcript(system, "markov2", fn_kind, prev=0)
    digest = hashlib.sha256(transcript.encode()).hexdigest()
    assert digest == GOLDEN_PRIOR_RUNS_FROM_0[system, fn_kind]


# --- every embedder --------------------------------------------------------

# Each of the six embedders, called on (fn, counter, m, spec, rng, prev).
EMBEDDERS = {
    "s1": lambda fn, c, m, spec, rng, prev: s1_embed(fn, m, spec, rng, count=8, prev=prev),
    "s2": lambda fn, c, m, spec, rng, prev: s2_embed(fn, c, m, spec, rng, prev=prev),
    "s3": lambda fn, c, m, spec, rng, prev: s3_embed(fn, m, spec, rng, copies=2,
                                                     count=8, prev=prev),
    "s4": lambda fn, c, m, spec, rng, prev: s4_embed(fn, c, m, spec, rng, copies=3,
                                                     prev=prev),
    "p1": lambda fn, c, m, spec, rng, prev: p1_embed(fn, c, m, spec, rng, prev=prev),
    "p2": lambda fn, c, m, spec, rng, prev: p2_embed(fn, c, m, spec, rng, prev=prev),
}


@pytest.mark.parametrize("system", sorted(EMBEDDERS))
def test_embedders_reject_a_prev_outside_the_alphabet(system):
    # A negative id would silently condition on the last matrix row, and a
    # stationary channel would ignore any id; both are ConfigErrors raised
    # before the first draw, so the counter and the stream are untouched.
    embed = EMBEDDERS[system]
    fn = BitFunction.keyed(Key(bytes(16)))
    markov = load_channel_file(CHANNEL_DIR / "markov2.json")
    for spec in (ChannelSpec.uniform(2), markov):
        for prev in (-1, 2, 9, 2 ** 64, 1.0, True, "0"):
            counter, rng = Counter(5), RngState(1)
            with pytest.raises(ConfigError, match="previous document id"):
                embed(fn, counter, [1, 0, 1], spec, rng, prev)
            assert counter.value == 5
            assert rng.random() == RngState(1).random()
        for prev in (None, 0, 1):
            assert embed(fn, Counter(5), [1, 0, 1], spec, RngState(1), prev)


@pytest.mark.parametrize("system", sorted(EMBEDDERS))
def test_embedders_reject_a_message_value_that_is_no_bit(system):
    # Every value is checked before the counter moves or the first draw, so
    # neither the counter nor the stream changes.  True and False pass: they
    # equal 1 and 0, and embed as those bits do.
    embed = EMBEDDERS[system]
    fn, spec = BitFunction.keyed(Key(bytes(16))), ChannelSpec.uniform(4)
    for m in ([2, 0, 1], [1, -1], [0, 0.5], [1, "1"], [0, [1]], [None]):
        counter, rng = Counter(5), RngState(1)
        with pytest.raises(ConfigError, match="message bits must be 0 or 1"):
            embed(fn, counter, m, spec, rng, None)
        assert counter.value == 5
        assert rng.random() == RngState(1).random()
    assert (embed(fn, Counter(5), [True, False, True], spec, RngState(1), None)
            == embed(fn, Counter(5), [1, 0, 1], spec, RngState(1), None))


@pytest.mark.parametrize("source", [*sorted(EMBEDDERS), "ct_oracle", "ct_oracle_p1"])
@pytest.mark.parametrize("channel_name", sorted(TEST_CHANNELS))
def test_drawn_ids_stay_plain_ints(source, channel_name, documents_built):
    # Every embedder and the covertext oracle, bare and with p1's address
    # pair, pass each drawn id on as an int, with no Document built.
    spec = TEST_CHANNELS[channel_name]
    fn, m, rng = BitFunction.keyed(Key(bytes(range(16)))), RngState(5).bits(60), RngState(7)
    if source == "ct_oracle":
        out = ct_oracle(spec, None, 60, rng)
    elif source == "ct_oracle_p1":
        out = ct_oracle(spec, P1_ARRAYS, 60, rng)
    else:
        out = EMBEDDERS[source](fn, Counter(), m, spec, rng, None)
    if source in ("p1", "p2", "ct_oracle_p1"):
        assert all(type(s) is Mail for s in out)
        out = [s.doc for s in out]
    assert documents_built == []
    assert out and all(type(i) is int and 0 <= i < spec.alphabet_size for i in out)


# Each of the four extractors, on three ids: one message bit or one vote.
EXTRACTORS = {
    "s1": lambda fn, c, docs: s1_extract(fn, docs),
    "s2": lambda fn, c, docs: s2_extract(fn, c, docs, repetition=3),
    "s3": lambda fn, c, docs: s3_extract(fn, docs, copies=3),
    "s4": lambda fn, c, docs: s4_extract(fn, c, docs, copies=3),
}


@pytest.mark.parametrize("bad", [-1, 2 ** 64, 1.0, True])
@pytest.mark.parametrize("system", sorted(EXTRACTORS))
def test_extractors_reject_an_id_outside_the_8_byte_encoding(system, bad):
    # An id from outside is checked before the first PRF evaluation: the
    # random oracle draws no coin and the counter stays where it was.
    fn, counter = BitFunction.random_oracle(55), Counter(5)
    with pytest.raises(ConfigError, match="document id"):
        EXTRACTORS[system](fn, counter, [0, 2 ** 64 - 1, bad])
    assert counter.value == 5 and fn.table == {}
    assert len(EXTRACTORS[system](fn, counter, [0, 2 ** 64 - 1, 1])) in (1, 3)
