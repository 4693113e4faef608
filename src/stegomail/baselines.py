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

Embedding mutates the caller's History exactly as the senders would, and
every channel draw / PRF call is tallied in EmbedStats so that rate and
work-bound claims can be checked on real runs rather than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .channel import ChannelSpec, Document, History, sample_id
from .ecc import dec, enc
from .errors import ConfigError, ProtocolError
from .prf import BitFunction, Counter, eval_bit, eval_bit_sync, eval_bit_tuple
from .rng import RngState


@dataclass
class EmbedStats:
    """Work counters accumulated across embed calls."""

    samples_drawn: int = 0
    bits_embedded: int = 0
    docs_emitted: int = 0
    prf_evals: int = 0


def _budget(fn: BitFunction, count: int | None) -> int:
    """Default iteration budget: the key length in bits, as in s1/s3."""
    if count is not None:
        if count < 1:
            raise ConfigError(f"iteration budget must be >= 1, got {count}")
        return count
    return fn.key.bit_length if fn.mode == "keyed" else 128


def _last_id(h: History) -> int | None:
    last = h.last
    return None if last is None else last.id


# --- s1: plain rejection sampling ---------------------------------------

def s1_rs(fn: BitFunction, x: int, count: int, h: History, spec: ChannelSpec,
          rng: RngState, stats: EmbedStats | None = None) -> Document:
    """Resample until the document's bit equals x or the budget runs out.

    Returns the last draw either way; a final mismatch is silent, which is
    exactly the unreliability the repetition-coded systems exist to fix.
    """
    prev = _last_id(h)
    doc = None
    draws = 0
    for _ in range(count):
        doc = Document(sample_id(spec, prev, rng))
        draws += 1
        if eval_bit(fn, doc) == x:
            break
    if stats is not None:
        stats.samples_drawn += draws
        stats.prf_evals += draws
    return doc


def s1_embed(fn: BitFunction, m: Sequence[int], h: History, spec: ChannelSpec,
             rng: RngState, count: int | None = None,
             stats: EmbedStats | None = None) -> list[Document]:
    count = _budget(fn, count)
    docs = []
    for bit in m:
        doc = s1_rs(fn, bit, count, h, spec, rng, stats)
        h.append(doc)
        docs.append(doc)
    if stats is not None:
        stats.bits_embedded += len(docs)
        stats.docs_emitted += len(docs)
    return docs


def s1_extract(fn: BitFunction, docs: Sequence[Document]) -> list[int]:
    return [eval_bit(fn, d) for d in docs]


# --- s2: synchronized counter + repetition code --------------------------

def s2_embed(fn: BitFunction, counter: Counter, m: Sequence[int], h: History,
             spec: ChannelSpec, rng: RngState, repetition: int = 5,
             stats: EmbedStats | None = None) -> list[Document]:
    """Repetition-encode, then embed each coded bit with a 2-draw budget."""
    coded = enc(m, repetition)
    docs = []
    for bit in coded:
        prev = _last_id(h)
        doc = None
        for _ in range(2):
            doc = Document(sample_id(spec, prev, rng))
            if stats is not None:
                stats.samples_drawn += 1
                stats.prf_evals += 1
            if eval_bit_sync(fn, counter, doc) == bit:
                break
        h.append(doc)
        counter.advance()
        docs.append(doc)
    if stats is not None:
        stats.bits_embedded += len(m)
        stats.docs_emitted += len(docs)
    return docs


def s2_extract(fn: BitFunction, counter: Counter, docs: Sequence[Document],
               repetition: int = 5) -> list[int]:
    coded = []
    for doc in docs:
        coded.append(eval_bit_sync(fn, counter, doc))
        counter.advance()
    return dec(coded, repetition)


# --- s3: tuple-valued rejection sampling ----------------------------------

def s3_rs(fn: BitFunction, y: int, count: int, h: History, spec: ChannelSpec,
          rng: RngState, copies: int,
          stats: EmbedStats | None = None) -> list[Document]:
    """Resample whole `copies`-tuples until the tuple's bit equals y.

    Each attempt draws its documents against a scratch history that grows
    within the tuple; the committed history is left to the caller, which
    appends only the accepted tuple.
    """
    if copies < 1:
        raise ConfigError(f"covertexts per bit must be >= 1, got {copies}")
    base = _last_id(h)
    docs: list[Document] = []
    for _ in range(count):
        prev = base
        docs = []
        for _ in range(copies):
            doc = Document(sample_id(spec, prev, rng))
            prev = doc.id
            docs.append(doc)
            if stats is not None:
                stats.samples_drawn += 1
        if stats is not None:
            stats.prf_evals += 1
        if eval_bit_tuple(fn, docs) == y:
            break
    return docs


def s3_embed(fn: BitFunction, m: Sequence[int], h: History, spec: ChannelSpec,
             rng: RngState, copies: int, count: int | None = None,
             stats: EmbedStats | None = None) -> list[Document]:
    count = _budget(fn, count)
    docs = []
    for bit in m:
        group = s3_rs(fn, bit, count, h, spec, rng, copies, stats)
        for doc in group:
            h.append(doc)
        docs.extend(group)
    if stats is not None:
        stats.bits_embedded += len(m)
        stats.docs_emitted += len(docs)
    return docs


def s3_extract(fn: BitFunction, docs: Sequence[Document], copies: int) -> list[int]:
    if len(docs) % copies:
        raise ProtocolError(
            f"received {len(docs)} documents, not a multiple of tuple size {copies}")
    return [eval_bit_tuple(fn, docs[i:i + copies])
            for i in range(0, len(docs), copies)]


# --- s4: per-bit copies with two draws each -------------------------------

def s4_embed_bit(fn: BitFunction, counter: Counter, m: int, h: History,
                 spec: ChannelSpec, rng: RngState, copies: int,
                 stats: EmbedStats | None = None) -> list[Document]:
    """Emit `copies` documents for one bit, each the better of two draws.

    Sender and receiver consume the same counter values in the same order,
    one per emitted document.
    """
    if copies % 2 == 0 or copies < 1:
        raise ConfigError(f"copies must be odd and >= 1, got {copies}")
    docs = []
    for _ in range(copies):
        prev = _last_id(h)
        first = Document(sample_id(spec, prev, rng))
        second = Document(sample_id(spec, prev, rng))
        if stats is not None:
            stats.samples_drawn += 2
            stats.prf_evals += 1
        kept = first if eval_bit_sync(fn, counter, first) == m else second
        counter.advance()
        h.append(kept)
        docs.append(kept)
    if stats is not None:
        stats.bits_embedded += 1
        stats.docs_emitted += len(docs)
    return docs


def s4_extract_bit(fn: BitFunction, counter: Counter,
                   docs: Sequence[Document], copies: int) -> int:
    if copies % 2 == 0 or copies < 1:
        raise ConfigError(f"copies must be odd and >= 1, got {copies}")
    if len(docs) != copies:
        raise ProtocolError(f"expected {copies} documents for one bit, got {len(docs)}")
    votes = 0
    for doc in docs:
        votes += eval_bit_sync(fn, counter, doc)
        counter.advance()
    return 1 if votes > copies / 2 else 0


def s4_embed(fn: BitFunction, counter: Counter, m: Sequence[int], h: History,
             spec: ChannelSpec, rng: RngState, copies: int,
             stats: EmbedStats | None = None) -> list[Document]:
    docs = []
    for bit in m:
        docs.extend(s4_embed_bit(fn, counter, bit, h, spec, rng, copies, stats))
    return docs


def s4_extract(fn: BitFunction, counter: Counter, docs: Sequence[Document],
               copies: int) -> list[int]:
    if len(docs) % copies:
        raise ProtocolError(
            f"received {len(docs)} documents, not a multiple of copy count {copies}")
    return [s4_extract_bit(fn, counter, docs[i:i + copies], copies)
            for i in range(0, len(docs), copies)]
