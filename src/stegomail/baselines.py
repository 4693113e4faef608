"""The four prior black-box stegosystems used as comparison baselines.

All four hide bits by steering which channel draws get emitted:

* ``s1`` — per bit, resample up to `count` times until the document's
  keyed bit matches the message bit.
* ``s2`` — like s1 but with a synchronized counter in the PRF input and a
  draw budget of 2, relying on an outer repetition code for reliability.
* ``s3`` — like s1 but each message bit rides on a tuple of `copies`
  documents, raising the effective min-entropy of the cover.
* ``s4`` — per message bit, emit `copies` documents, each picked from two
  fresh draws to bias the counter-synchronized bit toward the message;
  extraction takes a majority vote.

Each embedder draws its first document conditioned on `prev`, the id of
the last document already sent (None before any), and every channel
draw / PRF query is tallied in EmbedStats so that rate and work-bound
claims can be checked on real runs rather than asserted.  Each checks
`prev` with ``spec.row`` before its first draw, and s2 and s4 check
counter headroom there too, so a failed embed or extract mutates nothing.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .channel import ChannelSpec, Document, _set_doc_id, sample_id
from .ecc import _check_repetition, dec, enc
from .errors import ConfigError, ProtocolError
from .prf import (BitFunction, Counter, encode_doc, encode_sync_run, encode_tuple,
                  eval_bit, eval_bit_sync, eval_bit_tuple)
from .rng import RngState

_SPEND_CHUNK = 1024  # uniforms per getrandbits call as s1 spends a dead bit's budget


@dataclass
class EmbedStats:
    """Work counters accumulated across embed calls.

    ``samples_drawn`` counts the uniforms spent on draws, including an s1
    budget that is spent in one step because no id can match the bit.
    ``prf_evals`` counts the algorithm's PRF queries, one per draw for s1
    and s2, not hash calls: s1 answers a repeated query from its
    per-message memo.
    """

    samples_drawn: int = 0
    bits_embedded: int = 0
    docs_emitted: int = 0
    prf_evals: int = 0

    def add(self, samples_drawn: int, bits_embedded: int, docs_emitted: int,
            prf_evals: int) -> None:
        """Tally one embed call; each embedder calls this once per message."""
        self.samples_drawn += samples_drawn
        self.bits_embedded += bits_embedded
        self.docs_emitted += docs_emitted
        self.prf_evals += prf_evals


def _budget(fn: BitFunction, count: int | None) -> int:
    """Default iteration budget: the key length in bits, as in s1/s3."""
    if count is not None:
        if count < 1:
            raise ConfigError(f"iteration budget must be >= 1, got {count}")
        return count
    return 128 if fn._keyed_hash is None else fn.key.bit_length


def _check_copies(copies: int, odd: bool) -> None:
    if copies < 1 or (odd and copies % 2 == 0):
        parity = "odd and " if odd else ""
        raise ConfigError(f"copies per bit must be {parity}>= 1, got {copies}")


def _check_framing(docs: Sequence[Document], copies: int) -> None:
    if len(docs) % copies:
        raise ProtocolError(
            f"received {len(docs)} documents, not a multiple of {copies} per bit")


# --- s1: plain rejection sampling ---------------------------------------

def s1_embed(fn: BitFunction, m: Sequence[int], spec: ChannelSpec,
             rng: RngState, count: int | None = None,
             stats: EmbedStats | None = None, prev: int | None = None) -> list[Document]:
    """Per bit, redraw up to `count` times until the document's F1 bit matches.

    Every draw consumes one uniform and counts as one draw and one PRF
    query.  F1 of a bare document depends on its id alone, so each id is
    hashed once per message and a repeated query is answered from the
    memo `known`; the random oracle, which already holds the id, spends
    its coins in the same order either way.  Every drawn id enters the
    memo, so the `Document` built for its query in `made` is the one
    emitted each time that id is kept.  The draw is ``sample_id``
    inlined: one bit's draws share their conditioning id and so its CDF,
    which a stationary channel holds in ``_cum`` for every id.

    Once the memo holds every id of the alphabet and all of them carry the
    same bit, the other bit is `dead`: no draw, in any row of the channel,
    can match it.  Such a bit's remaining draws all miss and the last one
    is kept, so the stream is advanced past all but that last uniform by
    ``getrandbits(64 * k)`` calls of at most ``_SPEND_CHUNK`` uniforms,
    which keep a large budget from building one huge integer, and only
    the kept id is drawn.  CPython's ``random()`` consumes two 32-bit
    Mersenne-Twister words and ``getrandbits(n)`` ceil(n / 32), so 64 bits
    stand for one uniform; a test in ``tests/test_baselines.py`` pins this.
    The stream, the emitted ids and the counters are the same as drawing
    each one; no PRF input is new, so the random oracle spends no coin.
    An id of probability 0 is never drawn, so on such a channel the memo
    never fills and nothing is skipped.
    """
    count = _budget(fn, count)
    spec.row(prev)
    gen = rng._rand  # rng.random()'s generator; reading _rand seeds it
    rand, getrandbits = gen.random, gen.getrandbits
    tries = range(1, count + 1)
    size = spec.alphabet_size
    known: dict[int, int] = {}
    made: dict[int, Document] = {}
    dead = -1  # no bit is dead yet; an int compares faster than None
    docs = []
    draws = 0
    for bit in m:
        cdf = spec._cum or spec._cum_rows[prev]
        n = 0
        if bit != dead:
            for n in tries:
                i = bisect_right(cdf, rand())
                got = known.get(i)
                if got is None:
                    doc = made[i] = Document(i)
                    got = known[i] = eval_bit(fn, doc)
                    if len(known) == size and len(set(known.values())) == 1:
                        dead = 1 - got
                        if bit == dead:
                            break
                if got == bit:
                    break
        if bit == dead and n < count:
            k = count - n - 1
            while k > _SPEND_CHUNK:
                getrandbits(64 * _SPEND_CHUNK)
                k -= _SPEND_CHUNK
            getrandbits(64 * k)
            i = bisect_right(cdf, rand())
            n = count
        draws += n
        prev = i
        docs.append(made[i])
    if stats is not None:
        stats.add(draws, len(m), len(docs), draws)
    return docs


def s1_extract(fn: BitFunction, docs: Sequence[Document]) -> list[int]:
    return fn.bits([encode_doc(d) for d in docs])


# --- s2: synchronized counter + repetition code --------------------------

def s2_embed(fn: BitFunction, counter: Counter, m: Sequence[int],
             spec: ChannelSpec, rng: RngState, repetition: int = 5,
             stats: EmbedStats | None = None, prev: int | None = None) -> list[Document]:
    """Repetition-encode, then embed each coded bit with a 2-draw budget.

    A coded bit keeps the first draw whose synchronized bit equals it, or
    the second draw either way: a silent mismatch, which is exactly the
    unreliability the repetition code exists to fix.  Every draw is
    evaluated, the last included: the random oracle draws a coin at each
    new input.  The PRF takes each drawn id as it is, and only the kept
    one becomes a document.  A drawn id is in the alphabet, so that
    document is built in place, without ``Document``'s check.
    """
    spec.row(prev)
    coded = enc(m, repetition)
    counter.check_headroom(len(coded))
    new = object.__new__
    docs = []
    draws = 0
    for bit in coded:
        for n in range(1, 3):
            drawn = sample_id(spec, prev, rng)
            if eval_bit_sync(fn, counter, drawn) == bit:
                break
        draws += n
        prev = drawn
        doc = new(Document)
        _set_doc_id(doc, drawn)
        docs.append(doc)
        counter.value += 1
    if stats is not None:
        stats.add(draws, len(m), len(docs), draws)
    return docs


def s2_extract(fn: BitFunction, counter: Counter, docs: Sequence[Document],
               repetition: int = 5) -> list[int]:
    """Majority of the synchronized bits over each run of `repetition` documents.

    One counter value per document, all checked before the one batched
    PRF call.
    """
    _check_repetition(repetition)
    _check_framing(docs, repetition)
    counter.check_headroom(len(docs))
    coded = fn.bits(encode_sync_run(counter.value, [d.id for d in docs]))
    counter.value += len(docs)
    return dec(coded, repetition)


# --- s3: tuple-valued rejection sampling ----------------------------------

def s3_embed(fn: BitFunction, m: Sequence[int], spec: ChannelSpec,
             rng: RngState, copies: int, count: int | None = None,
             stats: EmbedStats | None = None, prev: int | None = None) -> list[Document]:
    """Resample whole `copies`-tuples until the tuple's bit equals the message bit.

    Each attempt draws its documents conditioned on the one before, starting
    from the last committed document; only the accepted tuple is kept.
    Each drawn document is built in place, without ``Document``'s check.
    """
    count = _budget(fn, count)
    _check_copies(copies, odd=False)
    spec.row(prev)
    new = object.__new__
    docs: list[Document] = []
    evals = 0
    for bit in m:
        for _ in range(count):
            group = []
            last = prev
            for _ in range(copies):
                last = sample_id(spec, last, rng)
                doc = new(Document)
                _set_doc_id(doc, last)
                group.append(doc)
            evals += 1
            if eval_bit_tuple(fn, group) == bit:
                break
        docs.extend(group)
        prev = last
    if stats is not None:
        stats.add(evals * copies, len(m), len(docs), evals)
    return docs


def s3_extract(fn: BitFunction, docs: Sequence[Document], copies: int) -> list[int]:
    _check_copies(copies, odd=False)
    _check_framing(docs, copies)
    return fn.bits([encode_tuple(docs[i:i + copies])
                    for i in range(0, len(docs), copies)])


# --- s4: per-bit copies with two draws each -------------------------------

def s4_embed(fn: BitFunction, counter: Counter, m: Sequence[int],
             spec: ChannelSpec, rng: RngState, copies: int,
             stats: EmbedStats | None = None, prev: int | None = None) -> list[Document]:
    """Emit `copies` documents per bit, each the better of two draws.

    Sender and receiver consume the same counter values in the same order,
    one per emitted document.  As in s2, the PRF takes the first draw's id,
    and only the kept id is built in place as a document.
    """
    _check_copies(copies, odd=True)
    spec.row(prev)
    counter.check_headroom(len(m) * copies)
    new = object.__new__
    docs = []
    for bit in m:
        for _ in range(copies):
            kept = sample_id(spec, prev, rng)
            second = sample_id(spec, prev, rng)
            if eval_bit_sync(fn, counter, kept) != bit:
                kept = second
            counter.value += 1
            prev = kept
            doc = new(Document)
            _set_doc_id(doc, kept)
            docs.append(doc)
    if stats is not None:
        stats.add(2 * len(docs), len(m), len(docs), len(docs))
    return docs


def s4_extract(fn: BitFunction, counter: Counter, docs: Sequence[Document],
               copies: int) -> list[int]:
    # The same vote as s2's: one synchronized bit per document, the
    # majority over each bit's copies.
    _check_copies(copies, odd=True)
    return s2_extract(fn, counter, docs, copies)
