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

from itertools import count
from operator import xor
from typing import Sequence

from .baselines import EmbedStats
from .channel import ChannelSpec, Document, _set_doc_id, sample_id
from .errors import ConfigError, ProtocolError
from .mail import Mail, _check_send_order, _columns, _mails, merge_by_date
from .prf import BitFunction, Counter, encode_sync_run, eval_bit_sync
from .rng import RngState

ADDRESS1 = "address1"
ADDRESS2 = "address2"


# The two address arrays each protocol may put on a mail: the first when the
# document's synchronized bit equals the message bit, the second when it
# does not (and signals complement on extraction).
P1_ARRAYS = ((ADDRESS1,), (ADDRESS2,))
P2_ARRAYS = ((ADDRESS1, ADDRESS2), (ADDRESS2, ADDRESS1))
ARRAYS = {"p1": P1_ARRAYS, "p2": P2_ARRAYS}


def _embed(fn: BitFunction, counter: Counter, protocol: str, m: Sequence[int],
           spec: ChannelSpec, rng: RngState, start_tick: int,
           stats: EmbedStats | None, prev: int | None) -> tuple[
               list[int], list[Document], list[tuple[str, ...]]]:
    """One draw and one PRF evaluation per bit, sent as three columns.

    The columns are the ones ``_extract`` takes: send ticks, documents and
    address arrays, with no ``Mail`` built.  Counter headroom for the whole
    message is checked, and the tick column built, before the first draw,
    so an embed that would overflow, or whose start tick is no integer,
    raises with the counter and the random stream as they were.  The first
    draw is conditioned on `prev`, the id of the last document already
    sent, which ``spec.row`` checks first.
    Each bit calls ``sample_id`` and ``eval_bit_sync`` once: the
    benchmark's traced run counts both against ``EmbedStats``.  A drawn id
    is in the alphabet, so each document is built in place through its
    slot, without ``Document``'s check.
    """
    n = len(m)
    if n < 1:
        raise ConfigError("message must contain at least one bit")
    arrays = ARRAYS[protocol]
    spec.row(prev)
    counter.check_headroom(n)
    ticks = list(range(start_tick, start_tick + n))
    new = object.__new__
    docs: list[Document] = []
    addresses: list[tuple[str, ...]] = []
    add_doc, add_addresses = docs.append, addresses.append
    for bit in m:
        prev = sample_id(spec, prev, rng)
        doc = new(Document)
        _set_doc_id(doc, prev)
        add_doc(doc)
        add_addresses(arrays[eval_bit_sync(fn, counter, doc) != bit])
        counter.value += 1
    if stats is not None:
        stats.add(n, n, n, n)
    return ticks, docs, addresses


def _extract(fn: BitFunction, counter: Counter, protocol: str, ticks: list[int],
             docs: Sequence[Document],
             addresses: Sequence[tuple[str, ...]]) -> list[int]:
    """Recompute each mail's bit; the second address array complements it.

    The mails come as three columns: send ticks, documents and address
    arrays.  A ``p1`` input is the whole mail sequence as sent, a ``p2``
    input one mailbox.  Send order, missing ticks (the embed sends
    consecutive ones), addresses and counter headroom are checked in that
    order, all before the first PRF evaluation, so an extract that fails
    leaves the counter as it was.  The whole message is evaluated in one
    batched call.
    """
    _check_send_order(ticks, "mail sequence" if protocol == "p1" else "mailbox")
    if ticks and ticks[-1] - ticks[0] != len(ticks) - 1:
        missing = next(t for t, sent in zip(count(ticks[0]), ticks) if t != sent)
        raise ProtocolError(f"send tick {missing} is missing from the {protocol} input")
    arrays = ARRAYS[protocol]
    complement = {arrays[0]: 0, arrays[1]: 1}
    flips = list(map(complement.get, addresses))
    if None in flips:
        arr = addresses[flips.index(None)]
        raise ProtocolError(f"mail addressed to {arr!r} is outside the {protocol} address set")
    n = len(docs)
    counter.check_headroom(n)
    bits = fn.bits(encode_sync_run(counter.value, docs))
    counter.value += n
    return list(map(xor, bits, flips))


# --- protocol 1: recipient choice ------------------------------------------

def p1_embed(fn: BitFunction, counter: Counter, m: Sequence[int],
             spec: ChannelSpec, rng: RngState, start_tick: int = 0,
             stats: EmbedStats | None = None, prev: int | None = None) -> list[Mail]:
    """Hide each bit in the choice between address1 and address2.

    One mail per bit, with strictly increasing ticks.
    """
    return _mails(*_embed(fn, counter, "p1", m, spec, rng, start_tick, stats, prev))


def p1_extract(fn: BitFunction, counter: Counter, box1: Sequence[Mail],
               box2: Sequence[Mail]) -> list[int]:
    """Merge the two mailboxes by send date, then extract bit by bit.

    Mails to address2 complement the document's bit.
    """
    mails = merge_by_date(list(box1), list(box2))
    return _extract(fn, counter, "p1", *_columns(mails))


# --- protocol 2: broadcast order --------------------------------------------

def p2_embed(fn: BitFunction, counter: Counter, m: Sequence[int],
             spec: ChannelSpec, rng: RngState, start_tick: int = 0,
             stats: EmbedStats | None = None, prev: int | None = None) -> list[Mail]:
    """Hide each bit in the order of the broadcast address array."""
    return _mails(*_embed(fn, counter, "p2", m, spec, rng, start_tick, stats, prev))


def p2_extract(fn: BitFunction, counter: Counter, box: Sequence[Mail]) -> list[int]:
    """Extract from a single mailbox; every broadcast lands in both boxes."""
    return _extract(fn, counter, "p2", *_columns(list(box)))
