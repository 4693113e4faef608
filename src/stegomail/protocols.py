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

from typing import Sequence

from .baselines import EmbedStats
from .channel import ChannelSpec, Document, _set_doc_id, sample_id
from .errors import ConfigError, ProtocolError
from .mail import (Mail, _check_send_order, _set_mail_addresses, _set_mail_doc,
                   _set_mail_sent_at, merge_by_date)
from .prf import BitFunction, Counter, encode_sync_run, eval_bit_sync
from .rng import RngState

ADDRESS1 = "address1"
ADDRESS2 = "address2"


# The two address arrays each protocol may put on a mail: the first when the
# document's synchronized bit equals the message bit, the second when it
# does not (and signals complement on extraction).
P1_ARRAYS = ((ADDRESS1,), (ADDRESS2,))
P2_ARRAYS = ((ADDRESS1, ADDRESS2), (ADDRESS2, ADDRESS1))


def _embed_multi(fn: BitFunction, counter: Counter, arrays, m: Sequence[int],
                 spec: ChannelSpec, rng: RngState, start_tick: int,
                 stats: EmbedStats | None, prev: int | None) -> list[Mail]:
    """One draw, one PRF evaluation and one mail per bit.

    Counter headroom for the whole message is checked before the first
    draw, so an embed that would overflow raises CounterError with the
    counter and the random stream as they were.  The first draw is
    conditioned on `prev`, the id of the last document already sent,
    which ``spec.row`` checks first.
    Each bit calls ``sample_id`` and ``eval_bit_sync`` once: the
    benchmark's traced run counts both against ``EmbedStats``.  A drawn id
    is in the alphabet and the address arrays are the module's constants,
    so each document and mail is built in place through its slots, as
    ``mail._mail`` does, without ``Document``'s and ``Mail``'s checks.
    """
    n = len(m)
    if n < 1:
        raise ConfigError("message must contain at least one bit")
    spec.row(prev)
    counter.check_headroom(n)
    new = object.__new__
    mails: list[Mail] = []
    append = mails.append
    for tick, bit in enumerate(m, start_tick):
        prev = sample_id(spec, prev, rng)
        doc = new(Document)
        _set_doc_id(doc, prev)
        mail = new(Mail)
        _set_mail_doc(mail, doc)
        _set_mail_addresses(mail, arrays[eval_bit_sync(fn, counter, doc) != bit])
        _set_mail_sent_at(mail, tick)
        append(mail)
        counter.value += 1
    if stats is not None:
        stats.add(n, n, n, n)
    return mails


def _extract_multi(fn: BitFunction, counter: Counter, arrays,
                   mails: Sequence[Mail]) -> list[int]:
    """Recompute each mail's bit; the second address array complements it.

    Addresses and counter headroom are checked before the first PRF
    evaluation, so an extract that fails leaves the counter as it was.
    The whole message is evaluated in one batched call.
    """
    complement = {arrays[0]: 0, arrays[1]: 1}
    flips = [complement.get(s.addresses) for s in mails]
    if None in flips:
        arr = mails[flips.index(None)].addresses
        variant = "p1" if arrays == P1_ARRAYS else "p2"
        raise ProtocolError(f"mail addressed to {arr!r} is outside the {variant} address set")
    n = len(mails)
    counter.check_headroom(n)
    bits = fn.bits(encode_sync_run(counter.value, [s.doc for s in mails]))
    counter.value += n
    return [b ^ flip for b, flip in zip(bits, flips)]


# --- protocol 1: recipient choice ------------------------------------------

def p1_embed(fn: BitFunction, counter: Counter, m: Sequence[int],
             spec: ChannelSpec, rng: RngState, start_tick: int = 0,
             stats: EmbedStats | None = None, prev: int | None = None) -> list[Mail]:
    """Hide each bit in the choice between address1 and address2.

    One mail per bit, with strictly increasing ticks.
    """
    return _embed_multi(fn, counter, P1_ARRAYS, m, spec, rng, start_tick, stats, prev)


def p1_extract(fn: BitFunction, counter: Counter, box1: Sequence[Mail],
               box2: Sequence[Mail]) -> list[int]:
    """Merge the two mailboxes by send date, then extract bit by bit.

    Mails to address2 complement the document's bit.
    """
    return _extract_multi(fn, counter, P1_ARRAYS, merge_by_date(list(box1), list(box2)))


def p1_route(mails: Sequence[Mail]) -> tuple[list[Mail], list[Mail]]:
    """Split a sent p1 sequence into the address1 and address2 mailboxes."""
    box1: list[Mail] = []
    box2: list[Mail] = []
    to1, to2 = P1_ARRAYS
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

def p2_embed(fn: BitFunction, counter: Counter, m: Sequence[int],
             spec: ChannelSpec, rng: RngState, start_tick: int = 0,
             stats: EmbedStats | None = None, prev: int | None = None) -> list[Mail]:
    """Hide each bit in the order of the broadcast address array."""
    return _embed_multi(fn, counter, P2_ARRAYS, m, spec, rng, start_tick, stats, prev)


def p2_extract(fn: BitFunction, counter: Counter, box: Sequence[Mail]) -> list[int]:
    """Extract from a single mailbox; every broadcast lands in both boxes."""
    mails = list(box)
    _check_send_order(mails, "mailbox")
    return _extract_multi(fn, counter, P2_ARRAYS, mails)
