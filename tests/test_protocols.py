import hashlib
import random
from itertools import count, pairwise
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stegomail import (BitFunction, ChannelSpec, ConfigError, Counter,
                       CounterError, EmbedStats, Key, Mail,
                       ProtocolError, RngState, channel_goodness_of_fit, eval_bit_sync,
                       load_channel_file,
                       p1_embed, p1_extract, p2_embed, p2_extract)
from stegomail.channel import sample_id
from stegomail.mail import _columns, format_trace
from stegomail.protocols import ADDRESS1, ADDRESS2, ARRAYS, P1_ARRAYS, P2_ARRAYS, _receive

from conftest import MARKOV2, TEST_CHANNELS, find_key_where, p1_route, point_mass

POINT_MASS_1 = point_mass(2)
CHANNEL_DIR = Path(__file__).resolve().parent.parent / "channels"


def oracle(seed: int) -> BitFunction:
    return BitFunction.random_oracle(seed)


def test_p1_matching_bit_goes_to_address1():
    key = find_key_where(
        lambda fn: eval_bit_sync(fn, 0, 0) == 1)
    [mail] = p1_embed(BitFunction.keyed(key), Counter(0), [1], POINT_MASS_1,
                      RngState(1))
    assert mail.addresses == (ADDRESS1,)


def test_p1_mismatching_bit_goes_to_address2():
    key = find_key_where(
        lambda fn: eval_bit_sync(fn, 0, 0) == 0)
    [mail] = p1_embed(BitFunction.keyed(key), Counter(0), [1], POINT_MASS_1,
                      RngState(1))
    assert mail.addresses == (ADDRESS2,)


def test_p1_one_bit_draws_once_and_advances_everything():
    counter = Counter(0)
    stats = EmbedStats()
    [mail] = p1_embed(oracle(3), counter, [0], MARKOV2, RngState(3), 7, stats)
    assert stats.samples_drawn == 1
    assert stats.prf_evals == 1
    assert counter.value == 1
    assert mail.sent_at == 7


def test_p1_address_frequency_under_random_function():
    fn, counter = oracle(5), Counter(0)
    rng = RngState(5)
    hits = 0
    n = 10_000
    for i in range(n):
        [mail] = p1_embed(fn, counter, rng.bits(1), POINT_MASS_1, rng, i)
        hits += mail.addresses == (ADDRESS1,)
    assert abs(hits / n - 0.5) <= 0.02


def test_p1_extract_complement_rule():
    key = find_key_where(
        lambda fn: eval_bit_sync(fn, 0, 5) == 1)
    fn = BitFunction.keyed(key)
    assert p1_extract(fn, Counter(0), [], [Mail(5, (ADDRESS2,), 0)]) == [0]
    assert p1_extract(fn, Counter(0), [Mail(5, (ADDRESS1,), 0)], []) == [1]


def test_p1_one_bit_round_trip_exhaustive():
    # every message bit, every document of a 2^8 alphabet, every counter < 2^8
    fn = BitFunction.keyed(Key.from_hex("0f" * 16))
    for doc_id in range(256):
        spec = point_mass(256, doc_id)
        for n in range(256):
            for m in (0, 1):
                mails = p1_embed(fn, Counter(n), [m], spec, RngState(0))
                assert p1_extract(fn, Counter(n), *p1_route(mails)) == [m]


def test_p1_extract_rejects_foreign_address():
    with pytest.raises(ProtocolError):
        p1_extract(oracle(7), Counter(0), [Mail(0, ("address3",), 0)], [])
    with pytest.raises(ProtocolError):
        p1_extract(oracle(7), Counter(0), [Mail(0, (ADDRESS1, ADDRESS2), 0)], [])


def test_p1_embed_ticks_and_counts():
    counter = Counter(0)
    stats = EmbedStats()
    mails = p1_embed(oracle(9), counter, [1] * 8, MARKOV2, RngState(9), 100, stats)
    assert [m.sent_at for m in mails] == list(range(100, 108))
    assert stats.samples_drawn == 8
    assert counter.value == 8


def test_p1_embed_rejects_empty_message():
    with pytest.raises(ConfigError):
        p1_embed(oracle(11), Counter(0), [], MARKOV2, RngState(11))


@pytest.mark.parametrize("channel_name", sorted(TEST_CHANNELS))
def test_p1_round_trip_through_mailboxes(channel_name):
    spec = TEST_CHANNELS[channel_name]
    rng = RngState(13)
    for trial in range(300):
        trial_rng = rng.spawn(trial)
        key = Key.generate(trial_rng.spawn(0))
        m = trial_rng.spawn(1).bits(64)
        fn = BitFunction.keyed(key)
        mails = p1_embed(fn, Counter(0), m, spec, trial_rng.spawn(2))
        assert p1_extract(fn, Counter(0), *p1_route(mails)) == m


def test_p1_all_mails_in_one_box_still_extracts():
    # pick the message that matches every drawn document's bit, so every
    # mail lands in address1's box and address2 stays empty
    spec = ChannelSpec.uniform(64)
    key = Key.from_hex("aa" * 16)
    fn = BitFunction.keyed(key)
    probe = p1_embed(fn, Counter(0), [0] * 32, spec, RngState(15))
    matched = [eval_bit_sync(fn, i, mail.doc)
               for i, mail in enumerate(probe)]
    mails = p1_embed(fn, Counter(0), matched, spec, RngState(15))
    assert all(mail.addresses == (ADDRESS1,) for mail in mails)
    assert p1_extract(fn, Counter(0), mails, []) == matched


def test_p1_extract_rejects_duplicate_ticks():
    m1 = Mail(0, (ADDRESS1,), 0)
    m2 = Mail(1, (ADDRESS2,), 0)
    with pytest.raises(ProtocolError):
        p1_extract(oracle(17), Counter(0), [m1], [m2])


def test_p2_broadcast_orders():
    key_match = find_key_where(
        lambda fn: eval_bit_sync(fn, 0, 0) == 1)
    fn = BitFunction.keyed(key_match)
    [mail] = p2_embed(fn, Counter(0), [1], POINT_MASS_1, RngState(19))
    assert mail.addresses == (ADDRESS1, ADDRESS2)
    [mail2] = p2_embed(fn, Counter(0), [0], POINT_MASS_1, RngState(19))
    assert mail2.addresses == (ADDRESS2, ADDRESS1)


def test_p2_extract_complement_on_reversed_order():
    key = find_key_where(
        lambda fn: eval_bit_sync(fn, 0, 3) == 1)
    assert p2_extract(BitFunction.keyed(key), Counter(0),
                      [Mail(3, (ADDRESS2, ADDRESS1), 0)]) == [0]


def test_p2_round_trip_and_box_equivalence():
    rng = RngState(21)
    for trial in range(300):
        trial_rng = rng.spawn(trial)
        key = Key.generate(trial_rng.spawn(0))
        m = trial_rng.spawn(1).bits(64)
        fn = BitFunction.keyed(key)
        mails = p2_embed(fn, Counter(0), m, MARKOV2, trial_rng.spawn(2))
        # every mail goes to both addresses, so each box is the sent list
        assert all(set(mail.addresses) == {ADDRESS1, ADDRESS2} for mail in mails)
        assert p2_extract(fn, Counter(0), mails) == m


def test_p2_address_order_frequency_under_random_function():
    fn, counter = oracle(23), Counter(0)
    rng = RngState(23)
    hits = 0
    n = 10_000
    for i in range(n):
        [mail] = p2_embed(fn, counter, rng.bits(1), POINT_MASS_1, rng, i)
        hits += mail.addresses == (ADDRESS1, ADDRESS2)
    assert abs(hits / n - 0.5) <= 0.02


def test_p2_rejects_single_address_mail():
    with pytest.raises(ProtocolError):
        p2_extract(oracle(25), Counter(0), [Mail(0, (ADDRESS1,), 0)])


def test_p2_extract_requires_sorted_box():
    mails = [Mail(0, (ADDRESS1, ADDRESS2), 1),
             Mail(0, (ADDRESS2, ADDRESS1), 0)]
    with pytest.raises(ProtocolError):
        p2_extract(oracle(27), Counter(0), mails)
    # Ticks must strictly increase: two equal ticks are out of order too.
    counter = Counter(0)
    mails = [Mail(0, (ADDRESS1, ADDRESS2), 4),
             Mail(1, (ADDRESS2, ADDRESS1), 4)]
    with pytest.raises(ProtocolError, match="^mailbox is not sorted by send date$"):
        p2_extract(oracle(27), counter, mails)
    assert counter.value == 0


@pytest.mark.parametrize("channel_name", sorted(TEST_CHANNELS))
@pytest.mark.parametrize("embed_fn", [p1_embed, p2_embed])
def test_emitted_documents_match_channel(channel_name, embed_fn):
    # document-distribution equality at unit-test scale; the full-size
    # version lives in the acceptance suite
    spec = TEST_CHANNELS[channel_name]
    rng = RngState(29)
    fn = BitFunction.keyed(Key.generate(rng.spawn(0)))
    m = rng.spawn(1).bits(10_000)
    mails = embed_fn(fn, Counter(0), m, spec, rng.spawn(2))
    gof = channel_goodness_of_fit(spec, [mail.doc for mail in mails])
    assert gof.pvalue >= 0.01


def test_counter_overflow_is_a_hard_error():
    with pytest.raises(CounterError):
        p1_embed(oracle(31), Counter((1 << 64) - 1), [1], POINT_MASS_1,
                 RngState(31))


def test_counter_synchronization_after_n_bits():
    fn, tx, rx = oracle(33), Counter(0), Counter(0)
    mails = p1_embed(fn, tx, [1, 0, 1, 1, 0], MARKOV2, RngState(33))
    p1_extract(fn, rx, *p1_route(mails))
    assert tx.value == rx.value == 5


# SHA-256 of format_trace(pN_embed(...)) for the run in
# test_traces_are_pinned; recorded from the per-bit implementation, so a
# change to the draw order, the PRF input or the addressing shows here.
GOLDEN_TRACES = {
    ("p1", "uniform1024"): "bcd603826eb9f0f9075d12843c0c4b0df6c507a82f2ce769838e1a2a2a0d864e",
    ("p1", "point_mass4"): "615726b50550cbabe379f424fe9b963006b8fee65b30ea1a1e803b22ef28252a",
    ("p1", "markov2"): "ee30c6ac2e114b24fac2bd56b76d6ee47fde167c27ac138b71e2440b818a78bc",
    ("p2", "uniform1024"): "f76207a573a048c2ae335dad7ec477c105e8ff5cef6ee5175fe6f37a76c022aa",
    ("p2", "point_mass4"): "29f9d994ac5fa353a4b80b7bf13eecc25e695f58ac9f2515ab8802864f16644e",
    ("p2", "markov2"): "972fb27973cd856142f814c59485bd380f19994a7be42c6319c7ff64f3524d11",
}


def _trace_digest(variant: str, channel_name: str, prev: int | None = None) -> str:
    embed_fn = {"p1": p1_embed, "p2": p2_embed}[variant]
    spec = load_channel_file(CHANNEL_DIR / f"{channel_name}.json")
    key = Key.from_hex("000102030405060708090a0b0c0d0e0f")
    stats = EmbedStats()
    mails = embed_fn(BitFunction.keyed(key), Counter(250), RngState(7).bits(200),
                     spec, RngState(20260811), 3, stats, prev)
    assert stats.samples_drawn == stats.prf_evals == stats.bits_embedded == 200
    return hashlib.sha256(format_trace(_columns(mails)).encode()).hexdigest()


@pytest.mark.parametrize("variant, channel_name", sorted(GOLDEN_TRACES))
def test_traces_are_pinned(variant, channel_name):
    assert _trace_digest(variant, channel_name) == GOLDEN_TRACES[variant, channel_name]


# The same runs on markov2 from a previous document, recorded through a
# one-document history before the embedders took the id itself.  From
# document 1 the trace is the golden one above, since markov2's row 1
# equals its initial vector; only the run from 0 shows that the first
# draw is conditioned on `prev`.
GOLDEN_TRACES_FROM_PREV = {
    ("p1", 0): "c8a25a28900a0afd9c58c3409d629bd877db296cbbd1481da470b63f59440ad9",
    ("p1", 1): "ee30c6ac2e114b24fac2bd56b76d6ee47fde167c27ac138b71e2440b818a78bc",
    ("p2", 0): "1504674170c47739c249fe2512b2a76bcd4f3a61acb8bfb2ee1c93ac0a630961",
    ("p2", 1): "972fb27973cd856142f814c59485bd380f19994a7be42c6319c7ff64f3524d11",
}


@pytest.mark.parametrize("variant, prev", sorted(GOLDEN_TRACES_FROM_PREV))
def test_traces_from_a_previous_document_are_pinned(variant, prev):
    assert _trace_digest(variant, "markov2", prev) == GOLDEN_TRACES_FROM_PREV[variant, prev]


NEAR_TOP = (1 << 64) - 3


@pytest.mark.parametrize("embed_fn", [p1_embed, p2_embed])
def test_embed_without_counter_headroom_mutates_nothing(embed_fn):
    fn, counter = oracle(35), Counter(NEAR_TOP)
    rng, twin = RngState(35), RngState(35)
    stats = EmbedStats()
    with pytest.raises(CounterError):
        embed_fn(fn, counter, [1, 0, 1, 1, 0], MARKOV2, rng, 0, stats, prev=1)
    assert counter.value == NEAR_TOP
    assert rng.random() == twin.random()
    assert stats == EmbedStats()
    mails = embed_fn(fn, counter, [1, 0], MARKOV2, rng, prev=1)
    assert len(mails) == 2
    assert counter.value == NEAR_TOP + 2


@pytest.mark.parametrize("embed_fn", [p1_embed, p2_embed])
def test_embed_with_a_non_integer_start_tick_mutates_nothing(embed_fn):
    # The tick column is built before the first draw.
    fn, counter, rng, twin = oracle(39), Counter(4), RngState(39), RngState(39)
    with pytest.raises(TypeError):
        embed_fn(fn, counter, [1, 0, 1], MARKOV2, rng, 1.5)
    assert counter.value == 4
    assert rng.random() == twin.random()


def test_failed_extract_leaves_counter_unchanged():
    fn = oracle(37)
    mails = p1_embed(fn, Counter(NEAR_TOP), [1, 0], MARKOV2, RngState(37))
    rx = Counter(NEAR_TOP + 1)
    with pytest.raises(CounterError):
        p1_extract(fn, rx, *p1_route(mails))
    assert rx.value == NEAR_TOP + 1
    foreign = [mails[0], Mail(mails[1].doc, ("address3",), mails[1].sent_at)]
    rx = Counter(NEAR_TOP)
    with pytest.raises(ProtocolError):
        p1_extract(fn, rx, foreign, [])
    assert rx.value == NEAR_TOP
    assert p1_extract(fn, rx, *p1_route(mails)) == [1, 0]


@pytest.mark.parametrize("variant", ["p1", "p2"])
@pytest.mark.parametrize("mode", ["keyed", "random_oracle"])
def test_extract_matches_per_mail_calls_and_advances_counter(variant, mode):
    def make():
        if mode == "keyed":
            return BitFunction.keyed(Key.from_hex("000102030405060708090a0b0c0d0e0f"))
        return oracle(57)
    embed_fn = {"p1": p1_embed, "p2": p2_embed}[variant]
    arrays = {"p1": P1_ARRAYS, "p2": P2_ARRAYS}[variant]
    m = RngState(57).bits(60)
    mails = embed_fn(make(), Counter(250), m, MARKOV2, RngState(57))
    fn, ref, rx = make(), make(), Counter(250)
    if variant == "p1":
        got = p1_extract(fn, rx, *p1_route(mails))
    else:
        got = p2_extract(fn, rx, mails)
    assert got == m == [eval_bit_sync(ref, 250 + k, s.doc)
                        ^ (s.addresses == arrays[1]) for k, s in enumerate(mails)]
    assert rx.value == 250 + len(m)
    if mode == "random_oracle":
        assert fn.table == ref.table
    foreign = mails[:-1] + [Mail(mails[-1].doc, ("address3",), mails[-1].sent_at)]
    with pytest.raises(ProtocolError):
        if variant == "p1":
            p1_extract(fn, rx, foreign, [])
        else:
            p2_extract(fn, rx, foreign)
    assert rx.value == 250 + len(m)


def test_p1_route_splits_and_rejects_foreign_addresses():
    mails = p1_embed(oracle(39), Counter(0), [1, 0, 0, 1, 1], MARKOV2,
                     RngState(39))
    box1, box2 = p1_route(mails)
    assert all(m.addresses == (ADDRESS1,) for m in box1)
    assert all(m.addresses == (ADDRESS2,) for m in box2)
    assert sorted(box1 + box2, key=lambda m: m.sent_at) == mails
    with pytest.raises(ProtocolError):
        p1_route(mails + [Mail(0, (ADDRESS1, ADDRESS2), 99)])


@pytest.mark.parametrize("variant", ["p1", "p2"])
def test_a_gap_in_the_send_ticks_fails_at_the_gap(variant):
    # The embed sends consecutive ticks, and after a lost mail every later bit
    # would be read at the wrong counter, so the extract names the first
    # missing tick before any PRF evaluation.
    embed_fn = {"p1": p1_embed, "p2": p2_embed}[variant]
    mails = embed_fn(oracle(59), Counter(0), RngState(59).bits(8), MARKOV2, RngState(59))
    kept = [mail for mail in mails if mail.sent_at not in (3, 4)]
    fn, rx = oracle(59), Counter(0)
    with pytest.raises(ProtocolError, match=f"^send tick 3 is missing from the {variant} input$"):
        if variant == "p1":
            p1_extract(fn, rx, *p1_route(kept))
        else:
            p2_extract(fn, rx, kept)
    assert rx.value == 0
    assert fn.table == {}


@pytest.mark.parametrize("box", [0, 1])
def test_p1_mail_lost_from_one_mailbox_fails_at_its_tick(box):
    fn = oracle(61)
    boxes = list(p1_route(p1_embed(fn, Counter(0), [0, 1] * 8, MARKOV2, RngState(61))))
    assert len(boxes[box]) > 2  # the lost mail is neither the first nor the last sent
    lost = boxes[box].pop(1)
    with pytest.raises(ProtocolError,
                       match=f"^send tick {lost.sent_at} is missing from the p1 input$"):
        p1_extract(fn, Counter(0), *boxes)


def test_empty_input_extracts_to_no_bits():
    assert p1_extract(oracle(63), Counter(0), [], []) == []
    assert p2_extract(oracle(63), Counter(0), []) == []


def _first_fault(protocol, ticks, addresses):
    """The checks on a whole p1/p2 input in one list, in their order: send
    order, a missing tick, an address array outside the pair."""
    if not all(a < b for a, b in pairwise(ticks)):
        return f"{'mail sequence' if protocol == 'p1' else 'mailbox'} is not sorted by send date"
    if ticks and ticks[-1] - ticks[0] != len(ticks) - 1:
        missing = next(t for t, sent in zip(count(ticks[0]), ticks) if t != sent)
        return f"send tick {missing} is missing from the {protocol} input"
    foreign = [a for a in addresses if a not in ARRAYS[protocol]]
    if foreign:
        return f"mail addressed to {foreign[0]!r} is outside the {protocol} address set"
    return None


@st.composite
def _received_inputs(draw):
    """A p1/p2 input with its send ticks nudged, lost or swapped and an
    address array made foreign, cut into chunks at drawn rows."""
    protocol = draw(st.sampled_from(["p1", "p2"]))
    n = draw(st.integers(0, 30))
    start = draw(st.integers(-5, 5))
    ticks = list(range(start, start + n))
    for _ in range(draw(st.integers(0, 2))):
        if ticks:
            i = draw(st.integers(0, len(ticks) - 1))
            ticks[i] += draw(st.sampled_from([-2, -1, 1, 2]))
    if ticks and draw(st.booleans()):
        del ticks[draw(st.integers(0, len(ticks) - 1))]
    arrays = ARRAYS[protocol] + ((ADDRESS1, "address3"),)
    addresses = [arrays[draw(st.sampled_from([0, 1, 0, 1, 2]))] for _ in ticks]
    ids = [draw(st.integers(0, 2 ** 64 - 1)) for _ in ticks]
    cuts = sorted(draw(st.lists(st.integers(0, len(ticks)), max_size=6)))
    bounds = [0, *cuts, len(ticks)]
    chunks = [(ticks[a:b], ids[a:b], addresses[a:b]) for a, b in pairwise(bounds)]
    return protocol, ticks, ids, addresses, chunks


@settings(max_examples=400, deadline=None)
@given(_received_inputs())
def test_receive_finds_the_first_fault_whatever_the_chunks(case):
    # Empty chunks and cuts between any two rows, a fault on either side.
    protocol, ticks, ids, addresses, chunks = case
    got_ids, got_flips, fault = _receive(protocol, chunks)
    assert fault == _first_fault(protocol, ticks, addresses)
    if fault is None:
        assert list(got_ids) == ids
        assert list(got_flips) == [ARRAYS[protocol].index(a) for a in addresses]


# --- exact statements behind criteria 6 and 7 ----------------------------------

_SEED = 41
_FUNCTIONS = st.one_of(
    st.binary(min_size=8, max_size=64).map(lambda k: BitFunction.keyed(Key(k))),
    st.integers(0, 2 ** 64).map(BitFunction.random_oracle))


@pytest.mark.parametrize("spec", [ChannelSpec.uniform(4), MARKOV2],
                         ids=["uniform4", "markov2"])
@pytest.mark.parametrize("embed_fn", [p1_embed, p2_embed])
@settings(max_examples=100, deadline=None)
@given(fn=_FUNCTIONS, m=st.lists(st.integers(0, 1), min_size=1, max_size=64),
       counter=st.integers(0, 2 ** 64 - 65))
def test_embedded_documents_are_the_stream_alone(embed_fn, spec, fn, m, counter):
    # The ids are the channel's own draws on the stream, and the stream is
    # left where those draws leave it, whatever the key, message and counter:
    # a document warden sees covertext (criterion 6).
    reference = RngState(_SEED)
    drawn, prev = [], None
    for _ in m:
        prev = sample_id(spec, prev, reference)
        drawn.append(prev)
    rng = RngState(_SEED)
    mails = embed_fn(fn, Counter(counter), m, spec, rng)
    assert [mail.doc for mail in mails] == drawn
    assert rng.random() == reference.random()


@pytest.mark.parametrize("spec", [ChannelSpec.uniform(4), MARKOV2],
                         ids=["uniform4", "markov2"])
@pytest.mark.parametrize("embed_fn", [p1_embed, p2_embed])
@settings(max_examples=100, deadline=None)
@given(oracle_seed=st.integers(0, 2 ** 64),
       m=st.lists(st.integers(0, 1), min_size=1, max_size=64),
       counter=st.integers(0, 2 ** 64 - 65))
def test_random_function_flips_are_the_message_xor_fresh_coins(embed_fn, spec,
                                                              oracle_seed, m, counter):
    # Every F2 input carries a new counter value, so the random function
    # answers each bit with its next coin, in counter order, and the address
    # choice is the message masked by those coins (criterion 7).
    arrays = P1_ARRAYS if embed_fn is p1_embed else P2_ARRAYS
    mails = embed_fn(oracle(oracle_seed), Counter(counter), m, spec, RngState(_SEED))
    coins = random.Random(oracle_seed)
    assert [arrays.index(mail.addresses) for mail in mails] == [
        bit ^ coins.getrandbits(1) for bit in m]
