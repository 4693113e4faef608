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

from array import array
from itertools import count
from operator import lt, xor
from typing import Iterable, Sequence

from .baselines import EmbedStats
from .channel import ChannelSpec, sample_id
from .errors import ConfigError, ProtocolError
from .mail import _TRACE_CHUNK, Mail, _columns, _mails, merge_by_date
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
               range, array, bytearray]:
    """One draw and one PRF evaluation per bit, sent as three compact columns.

    The columns are send ticks (a range), document ids (an ``array('Q')``)
    and flips (a ``bytearray``): 1 where the mail takes the protocol's
    second address array, ``ARRAYS[protocol][flip]``.  No ``Document`` or
    ``Mail`` is built.  Counter headroom for the whole message is checked,
    and the tick column built, before the first draw, so an embed that
    would overflow, or whose start tick is no integer, raises with the
    counter and the random stream as they were.  The first draw is
    conditioned on `prev`, the id of the last document already sent, which
    ``spec.row`` checks first.
    Each bit calls ``sample_id`` and ``eval_bit_sync`` once: the
    benchmark's traced run counts both against ``EmbedStats``.
    """
    n = len(m)
    if n < 1:
        raise ConfigError("message must contain at least one bit")
    spec.row(prev)
    counter.check_headroom(n)
    ticks = range(start_tick, start_tick + n)
    ids = array("Q")
    flips = bytearray()
    add_id, add_flip = ids.append, flips.append
    for bit in m:
        prev = sample_id(spec, prev, rng)
        add_id(prev)
        add_flip(eval_bit_sync(fn, counter, prev) != bit)
        counter.value += 1
    if stats is not None:
        stats.add(n, n, n, n)
    return ticks, ids, flips


def _receive(protocol: str, chunks: Iterable[tuple[Sequence[int], list[int],
                                                   Sequence[tuple[str, ...]]]]
             ) -> tuple[array, bytearray, str | None]:
    """Read a ``p1``/``p2`` input into the ids and flips ``_extract`` takes.

    The input comes as chunks of three columns, in send order: send ticks,
    document ids and address arrays.  A ``p1`` input is the whole mail
    sequence as sent, a ``p2`` input one mailbox.  Its first fault is
    returned as a message, not raised, in this order: send ticks not
    strictly increasing, a missing tick (the embed sends consecutive ones),
    an address array outside the protocol's pair.  So every chunk is read,
    and a trace parsed as it is read raises a malformed line anywhere
    before any such fault; the CLI builds its counter in between, as the
    library's callers do before they call an extractor.
    """
    arrays = ARRAYS[protocol]
    complement = {arrays[0]: 0, arrays[1]: 1}
    ids, flips = array("Q"), bytearray()
    unsorted = False
    last = expected = missing = foreign = None
    for ticks, chunk_ids, addresses in chunks:
        if unsorted or not ticks:
            continue
        if (last is not None and ticks[0] <= last) or not all(map(lt, ticks, ticks[1:])):
            unsorted = True
            continue
        last = ticks[-1]
        if missing is None:
            if expected is None:
                expected = ticks[0]
            if last - expected != len(ticks) - 1:
                missing = next(t for t, sent in zip(count(expected), ticks) if t != sent)
            expected += len(ticks)
        if missing is None and foreign is None:
            try:
                flips += bytes(map(complement.__getitem__, addresses))
            except KeyError:
                foreign = next(a for a in addresses if a not in complement)
            else:
                ids.fromlist(chunk_ids)
    fault = None
    if unsorted:
        fault = f"{'mail sequence' if protocol == 'p1' else 'mailbox'} is not sorted by send date"
    elif missing is not None:
        fault = f"send tick {missing} is missing from the {protocol} input"
    elif foreign is not None:
        fault = f"mail addressed to {foreign!r} is outside the {protocol} address set"
    return ids, flips, fault


def _extract(fn: BitFunction, counter: Counter,
             received: tuple[array, bytearray, str | None]) -> list[int]:
    """Recompute each mail's bit; a flip complements it.

    `received` is what ``_receive`` returns.  Its fault is raised first, as
    a ``ProtocolError``, then counter headroom is checked, all before the
    first PRF evaluation, so an extract that fails leaves the counter as it
    was.  The PRF is evaluated in one batched call per _TRACE_CHUNK mails.
    """
    ids, flips, fault = received
    if fault is not None:
        raise ProtocolError(fault)
    n = len(ids)
    counter.check_headroom(n)
    bits: list[int] = []
    for start in range(0, n, _TRACE_CHUNK):
        end = start + _TRACE_CHUNK
        bits += map(xor, fn.bits(encode_sync_run(counter.value + start, ids[start:end])),
                    flips[start:end])
    counter.value += n
    return bits


# --- protocol 1: recipient choice ------------------------------------------

def p1_embed(fn: BitFunction, counter: Counter, m: Sequence[int],
             spec: ChannelSpec, rng: RngState, start_tick: int = 0,
             stats: EmbedStats | None = None, prev: int | None = None) -> list[Mail]:
    """Hide each bit in the choice between address1 and address2.

    One mail per bit, with strictly increasing ticks.
    """
    ticks, ids, flips = _embed(fn, counter, "p1", m, spec, rng, start_tick, stats, prev)
    return _mails(ticks, ids, (P1_ARRAYS[flip] for flip in flips))


def p1_extract(fn: BitFunction, counter: Counter, box1: Sequence[Mail],
               box2: Sequence[Mail]) -> list[int]:
    """Merge the two mailboxes by send date, then extract bit by bit.

    Mails to address2 complement the document's bit.
    """
    mails = merge_by_date(list(box1), list(box2))
    return _extract(fn, counter, _receive("p1", [_columns(mails)]))


# --- protocol 2: broadcast order --------------------------------------------

def p2_embed(fn: BitFunction, counter: Counter, m: Sequence[int],
             spec: ChannelSpec, rng: RngState, start_tick: int = 0,
             stats: EmbedStats | None = None, prev: int | None = None) -> list[Mail]:
    """Hide each bit in the order of the broadcast address array."""
    ticks, ids, flips = _embed(fn, counter, "p2", m, spec, rng, start_tick, stats, prev)
    return _mails(ticks, ids, (P2_ARRAYS[flip] for flip in flips))


def p2_extract(fn: BitFunction, counter: Counter, box: Sequence[Mail]) -> list[int]:
    """Extract from a single mailbox; every broadcast lands in both boxes."""
    return _extract(fn, counter, _receive("p2", [_columns(list(box))]))
