"""The two email stegosystems built on address-choice encoding.

Both send exactly one channel draw per message bit, untouched, and move
the hidden bit into mail addressing instead of into the document:

* ``p1`` — the recipient address carries the bit: the mail goes to
  address1 when the counter-synchronized bit of the document equals the
  message bit, to address2 otherwise.  Extraction reads both mailboxes
  merged by send date.
* ``p2`` — every mail is broadcast to both addresses and the *order* of
  the address array carries the bit.  Either single mailbox suffices for
  extraction; no merge is needed.

Reliability is exact by construction: extraction recomputes the same
synchronized bit and conditionally complements it, so embed/extract is
the identity on messages for any channel and any bit function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .baselines import EmbedStats
from .channel import ChannelSpec, Document, History, sample_id
from .errors import ConfigError, ProtocolError
from .mail import Mail, merge_by_date
from .prf import BitFunction, Counter, Key, eval_bit_sync
from .rng import RngState

ADDRESS1 = "address1"
ADDRESS2 = "address2"


@dataclass(frozen=True)
class ProtocolAddressSet:
    """The two address arrays a protocol may put on a mail.

    ``arrays[0]`` is used when the document's synchronized bit equals the
    message bit, ``arrays[1]`` when it does not (and signals complement on
    extraction).
    """

    variant: str
    arrays: tuple[tuple[str, ...], tuple[str, ...]]

    @classmethod
    def for_variant(cls, variant: str) -> "ProtocolAddressSet":
        v = variant.lower()
        if v == "p1":
            return cls("p1", ((ADDRESS1,), (ADDRESS2,)))
        if v == "p2":
            return cls("p2", ((ADDRESS1, ADDRESS2), (ADDRESS2, ADDRESS1)))
        raise ConfigError(f"unknown protocol variant {variant!r}")


P1_ADDRESS_SET = ProtocolAddressSet.for_variant("p1")
P2_ADDRESS_SET = ProtocolAddressSet.for_variant("p2")


@dataclass
class StegoKeyState:
    """Shared secret state: the keyed bit function plus the synchronized counter."""

    fn: BitFunction
    counter: Counter

    @classmethod
    def from_key(cls, key: Key, counter_value: int = 0) -> "StegoKeyState":
        return cls(BitFunction.keyed(key), Counter(counter_value))


def _embed_multi(state: StegoKeyState, addresses: ProtocolAddressSet,
                 m: Sequence[int], h: History, start_tick: int,
                 spec: ChannelSpec, rng: RngState,
                 stats: EmbedStats | None) -> list[Mail]:
    """One draw, one PRF evaluation and one mail per bit.

    Counter headroom for the whole message is checked before the first
    draw, so an embed that would overflow raises CounterError with the
    history, the counter and the random stream as they were.
    """
    n = len(m)
    if n < 1:
        raise ConfigError("message must contain at least one bit")
    counter = state.counter
    counter.check_headroom(n)
    fn = state.fn
    arrays = addresses.arrays
    last = h.last
    prev = None if last is None else last.id
    docs: list[Document] = []
    mails: list[Mail] = []
    for i, bit in enumerate(m):
        prev = sample_id(spec, prev, rng)
        doc = Document(prev)
        mails.append(Mail(doc, arrays[eval_bit_sync(fn, counter, doc) != bit],
                          start_tick + i))
        docs.append(doc)
        counter.value += 1
    h.extend(docs)
    if stats is not None:
        stats.samples_drawn += n
        stats.prf_evals += n
        stats.bits_embedded += n
        stats.docs_emitted += n
    return mails


def _extract_multi(state: StegoKeyState, addresses: ProtocolAddressSet,
                   mails: Sequence[Mail]) -> list[int]:
    """Recompute each mail's bit; the second address array complements it.

    Addresses and counter headroom are checked before the first PRF
    evaluation, so an extract that fails leaves the counter as it was.
    """
    complement = {addresses.arrays[0]: 0, addresses.arrays[1]: 1}
    flips = [complement.get(s.addresses) for s in mails]
    if None in flips:
        arr = mails[flips.index(None)].addresses
        raise ProtocolError(
            f"mail addressed to {arr!r} is outside the {addresses.variant} address set")
    counter = state.counter
    counter.check_headroom(len(mails))
    fn = state.fn
    bits = []
    for s, flip in zip(mails, flips):
        bits.append(eval_bit_sync(fn, counter, s.doc) ^ flip)
        counter.value += 1
    return bits


# --- protocol 1: recipient choice ------------------------------------------

def p1_embed_one_bit(state: StegoKeyState, m: int, h: History, tick: int,
                     spec: ChannelSpec, rng: RngState,
                     stats: EmbedStats | None = None) -> Mail:
    """Hide one bit in the choice between address1 and address2."""
    return _embed_multi(state, P1_ADDRESS_SET, [m], h, tick, spec, rng, stats)[0]


def p1_extract_one_bit(state: StegoKeyState, s: Mail) -> int:
    """Recover one bit; mails to address2 complement the document's bit."""
    return _extract_multi(state, P1_ADDRESS_SET, [s])[0]


def p1_embed(state: StegoKeyState, m: Sequence[int], h: History,
             start_tick: int, spec: ChannelSpec, rng: RngState,
             stats: EmbedStats | None = None) -> list[Mail]:
    """Embed a bit string as one mail per bit with strictly increasing ticks."""
    return _embed_multi(state, P1_ADDRESS_SET, m, h, start_tick, spec, rng, stats)


def p1_extract(state: StegoKeyState, box1: Sequence[Mail],
               box2: Sequence[Mail]) -> list[int]:
    """Merge the two mailboxes by send date, then extract bit by bit."""
    return _extract_multi(state, P1_ADDRESS_SET, merge_by_date(list(box1), list(box2)))


def p1_route(mails: Sequence[Mail]) -> tuple[list[Mail], list[Mail]]:
    """Split a sent p1 sequence into the address1 and address2 mailboxes."""
    box1: list[Mail] = []
    box2: list[Mail] = []
    to1, to2 = P1_ADDRESS_SET.arrays
    for s in mails:
        if s.addresses == to1:
            box1.append(s)
        elif s.addresses == to2:
            box2.append(s)
        else:
            raise ProtocolError(
                f"mail addressed to {s.addresses!r} is outside the p1 address set")
    return box1, box2


# --- protocol 2: broadcast order --------------------------------------------

def p2_embed_one_bit(state: StegoKeyState, m: int, h: History, tick: int,
                     spec: ChannelSpec, rng: RngState,
                     stats: EmbedStats | None = None) -> Mail:
    """Hide one bit in the order of the broadcast address array."""
    return _embed_multi(state, P2_ADDRESS_SET, [m], h, tick, spec, rng, stats)[0]


def p2_extract_one_bit(state: StegoKeyState, s: Mail) -> int:
    return _extract_multi(state, P2_ADDRESS_SET, [s])[0]


def p2_embed(state: StegoKeyState, m: Sequence[int], h: History,
             start_tick: int, spec: ChannelSpec, rng: RngState,
             stats: EmbedStats | None = None) -> list[Mail]:
    return _embed_multi(state, P2_ADDRESS_SET, m, h, start_tick, spec, rng, stats)


def p2_extract(state: StegoKeyState, box: Sequence[Mail]) -> list[int]:
    """Extract from a single mailbox; every broadcast lands in both boxes."""
    mails = list(box)
    for a, b in zip(mails, mails[1:]):
        if b.sent_at <= a.sent_at:
            raise ProtocolError("mailbox is not sorted by send date")
    return _extract_multi(state, P2_ADDRESS_SET, mails)
