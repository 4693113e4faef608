"""Simulated email transport: mails, the mailbox merge, and the trace format.

A mail is the triple (document, ordered address array, send tick).  Ticks
are abstract integers incremented once per sent mail, so timestamps are
always pairwise distinct and the two-mailbox merge is unambiguous.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from itertools import chain, islice, pairwise
from operator import attrgetter, lt
from typing import Iterable, Iterator, Sequence

from .channel import Document, _set_doc_id
from .errors import ConfigError, ProtocolError


# The trace's field and line separators: a comma, a tab, and every
# character str.splitlines breaks a line at.
_SEPARATOR = re.compile("[,\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")

# Rows write_trace formats per format_trace call, and rows the extractors
# evaluate per batched PRF call: each holds its line strings, text or PRF
# inputs for one chunk only.
_TRACE_CHUNK = 4096

# Bytes a trace file is read in: each piece is cut just after its last
# "\n", so it ends a line (a piece with none grows until one is read).
_READ_PIECE = 1 << 16

# Distinct id or address fields the trace parser remembers: past this
# many, at the end of a piece, it forgets them all, so a trace of many
# distinct ids costs parsing time instead of memory per line.
_FIELD_MEMO = 1 << 16


@dataclass(frozen=True, slots=True)
class Mail:
    doc: Document
    addresses: tuple[str, ...]
    sent_at: int

    def __post_init__(self) -> None:
        # A mail holds only what one trace line carries, so format_trace
        # writes every mail and parse_trace reads the same mail back.
        # Type first, as in Document and Counter: a float or a bool is no tick.
        if type(self.sent_at) is not int:
            raise ProtocolError(
                f"send tick must be an int, not {type(self.sent_at).__name__}")
        if not isinstance(self.doc, Document):
            raise ProtocolError(
                f"mail document must be a Document, not {type(self.doc).__name__}")
        addresses = self.addresses
        if not addresses:
            raise ProtocolError("mail must have at least one recipient address")
        if type(addresses) is not tuple:
            raise ProtocolError(
                f"recipient addresses must be a tuple, not {type(addresses).__name__}")
        if not all(type(a) is str and a for a in addresses):
            raise ProtocolError("recipient addresses must be nonempty strings")
        for a in addresses:
            if _SEPARATOR.search(a):
                raise ProtocolError(
                    f"recipient address {a!r} holds a comma, tab or line break")
            try:
                a.encode()  # a trace is UTF-8, and a lone surrogate has no UTF-8 form
            except UnicodeEncodeError:
                raise ProtocolError(f"recipient address {a!r} is not UTF-8 text") from None


_set_mail_doc = Mail.doc.__set__
_set_mail_addresses = Mail.addresses.__set__
_set_mail_sent_at = Mail.sent_at.__set__
_new_mail = object.__new__


def _mail(doc: Document, addresses: tuple[str, ...], sent_at: int) -> Mail:
    """``Mail(doc, addresses, sent_at)`` without its checks.

    Only for callers whose fields are already known to be valid, such as
    the covertext oracle, whose address arrays are the protocols' constants.
    """
    mail = _new_mail(Mail)
    _set_mail_doc(mail, doc)
    _set_mail_addresses(mail, addresses)
    _set_mail_sent_at(mail, sent_at)
    return mail


def _mails(ticks: Iterable[int], ids: Iterable[int],
           addresses: Iterable[tuple[str, ...]]) -> list[Mail]:
    """Three columns as one mail per row, each built in place as ``_mail``
    builds one: the columns of the ``p1``/``p2`` embed, whose ids are drawn
    and whose address arrays are the protocols' constants, and those
    ``_trace_columns`` has checked.  The rows of one id share one
    ``Document``, built in place on its first row."""
    mails: list[Mail] = []
    append = mails.append
    docs: dict[int, Document] = {}
    new = object.__new__
    for tick, doc_id, addrs in zip(ticks, ids, addresses):
        doc = docs.get(doc_id)
        if doc is None:
            doc = docs[doc_id] = new(Document)
            _set_doc_id(doc, doc_id)
        mail = new(Mail)
        _set_mail_doc(mail, doc)
        _set_mail_addresses(mail, addrs)
        _set_mail_sent_at(mail, tick)
        append(mail)
    return mails


def _check_send_order(ticks: list[int], noun: str) -> None:
    """Raise ProtocolError unless the send ticks strictly increase."""
    if not all(map(lt, ticks, ticks[1:])):
        raise ProtocolError(f"{noun} is not sorted by send date")


def _columns(mails: Sequence[Mail]) -> tuple[list[int], list[int],
                                               list[tuple[str, ...]]]:
    """A mail sequence as three columns: send ticks, document ids, address arrays."""
    return ([m.sent_at for m in mails], [m.doc.id for m in mails],
            [m.addresses for m in mails])


def merge_by_date(seq1: Sequence[Mail], seq2: Sequence[Mail]) -> list[Mail]:
    """Merge two tick-sorted mail sequences into one, by send tick.

    Inputs must each be sorted ascending by sent_at with no tick shared
    between them; a duplicate tick would make the extracted bit order
    ambiguous and is rejected.  The sort finds the two ascending runs and
    merges them.
    """
    _check_send_order([m.sent_at for m in seq1], "mail sequence")
    _check_send_order([m.sent_at for m in seq2], "mail sequence")
    merged = sorted([*seq1, *seq2], key=attrgetter("sent_at"))
    for a, b in pairwise(merged):
        if a.sent_at == b.sent_at:
            raise ProtocolError(f"duplicate send tick {a.sent_at} across mailboxes")
    return merged


def format_trace(columns) -> str:
    """Wire format: one mail per line, `sent_at <TAB> doc_id <TAB> addrs`.

    The mails come as three columns of equal length: send ticks, document
    ids and address arrays.  Each row joins its address array: for the
    one- and two-address arrays of ``p1``/``p2`` that is cheaper than one
    lookup per row in a table of the arrays already joined.
    """
    ticks, ids, addresses = columns
    return "".join([f"{tick}\t{doc_id}\t{','.join(addrs)}\n"
                    for tick, doc_id, addrs in zip(ticks, ids, addresses, strict=True)])


def _trace_columns(pieces: Iterable[str]) -> Iterator[
        tuple[list[int], list[int], list[tuple[str, ...]]]]:
    """Parse a trace, given as text pieces that each end a line, into three
    columns per piece: send ticks, document ids, address arrays.

    Lines are numbered across the pieces, and blank lines are skipped.  A
    trace names few distinct document ids and address fields, so each
    distinct field is parsed and checked once per call, when first seen,
    and the lines that carry it share one id or one address tuple; past
    _FIELD_MEMO distinct fields, a field is parsed again once per piece.
    A document id is checked as ``Document`` checks it: it must fit the
    8-byte encoding the PRF reads.
    """
    seen_ids: dict[str, int] = {}
    split_fields: dict[str, tuple[str, ...]] = {}
    lineno = 0
    for piece in pieces:
        ticks: list[int] = []
        ids: list[int] = []
        addresses: list[tuple[str, ...]] = []
        for lineno, line in enumerate(piece.splitlines(), start=lineno + 1):
            if not line or line.isspace():
                continue
            try:
                raw_sent, raw_doc, raw_addrs = line.split("\t")
            except ValueError:
                raise ProtocolError(
                    f"trace line {lineno}: expected 3 tab-separated fields") from None
            try:
                ticks.append(int(raw_sent))
            except ValueError as e:
                raise ProtocolError(f"trace line {lineno}: {e}") from e
            doc_id = seen_ids.get(raw_doc)
            if doc_id is None:
                try:
                    doc_id = seen_ids[raw_doc] = Document(int(raw_doc)).id
                except (ValueError, ConfigError) as e:
                    raise ProtocolError(f"trace line {lineno}: {e}") from e
            ids.append(doc_id)
            addrs = split_fields.get(raw_addrs)
            if addrs is None:
                addrs = tuple(raw_addrs.split(","))
                if not all(addrs):
                    raise ProtocolError(
                        f"trace line {lineno}: recipient addresses must be nonempty strings")
                split_fields[raw_addrs] = addrs
            addresses.append(addrs)
        if len(seen_ids) > _FIELD_MEMO or len(split_fields) > _FIELD_MEMO:
            seen_ids.clear()
            split_fields.clear()
        yield ticks, ids, addresses


def parse_trace(text: str) -> list[Mail]:
    """Inverse of format_trace: the trace's columns, one mail per line."""
    return _mails(*next(_trace_columns([text])))


def write_trace(columns, path) -> None:
    """Write the mails given as three columns, as ``format_trace`` takes them.

    Rows are formatted and encoded _TRACE_CHUNK at a time into a new file
    beside `path`, which replaces `path` only once every row is written, so
    the trace is never held whole, and a row that fails, or a column longer
    or shorter than the others, leaves `path` as it was.  The new file gets
    the mode ``open(path, "wb")`` would give, and an error opening it names
    `path`.  A `path` that exists and is no regular file, such as a device,
    is written in place.
    """
    ticks, ids, addresses = map(iter, columns)
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        name, f = None, open(target, "wb")
    else:
        head, tail = os.path.split(target)
        name = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
        try:
            f = open(name, "xb")
        except OSError as e:
            e.filename = path
            raise
    try:
        with f:
            while chunk := list(islice(ticks, _TRACE_CHUNK)):
                n = len(chunk)
                f.write(format_trace((chunk, islice(ids, n), islice(addresses, n))).encode())
            for _ in chain(ids, addresses):
                raise ValueError("a trace column is longer than the send ticks")
        if name is not None:
            os.replace(name, target)
    except BaseException:
        if name is not None:
            os.unlink(name)
        raise


def _trace_pieces(path) -> Iterator[str]:
    """A trace file's text, about _READ_PIECE bytes at a time.

    Each piece is cut just after a "\n" (the last one ends where the file
    does).  A "\n" never starts a two-character line break, so the pieces'
    lines are the lines of the whole text.  A piece is cut between whole
    characters, so its UTF-8 decodes alone.
    """
    with open(path, "rb") as f:
        offset, held = 0, []
        while block := f.read(_READ_PIECE):
            cut = block.rfind(b"\n") + 1
            if not cut:
                held.append(block)
                continue
            held.append(block[:cut])
            data = b"".join(held)
            yield _decode_piece(data, path, offset)
            offset += len(data)
            held = [block[cut:]]
        if data := b"".join(held):
            yield _decode_piece(data, path, offset)


def _decode_piece(data: bytes, path, offset: int) -> str:
    """A piece of a trace file as text; a byte that is not UTF-8 is named by
    its offset in the file."""
    try:
        return data.decode()
    except UnicodeDecodeError as e:
        raise ProtocolError(f"trace file {path} is not UTF-8 text: {e.reason} "
                            f"at byte {offset + e.start}") from e


def read_trace(path) -> list[Mail]:
    """The mails of a trace file, whose text is read as ``_trace_pieces`` reads it."""
    return parse_trace("".join(_trace_pieces(path)))
