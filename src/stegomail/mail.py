"""Simulated email transport: mails, the mailbox merge, and the trace format.

A mail is the triple (document, ordered address array, send tick).  Ticks
are abstract integers incremented once per sent mail, so timestamps are
always pairwise distinct and the two-mailbox merge is unambiguous.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, islice, pairwise
from operator import attrgetter, lt
from typing import Iterable, Sequence

from .channel import Document
from .errors import ConfigError, ProtocolError


# The trace's field and line separators: a comma, a tab, and every
# character str.splitlines breaks a line at.
_SEPARATOR = re.compile("[,\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")

# Rows write_trace formats per format_trace call: besides the columns and
# the encoded trace, it holds the line strings and text of one chunk only.
_TRACE_CHUNK = 4096


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


def _mails(ticks: Iterable[int], docs: Iterable[Document],
           addresses: Iterable[tuple[str, ...]]) -> list[Mail]:
    """Three columns as one mail per row, each built in place as ``_mail``
    builds one: the columns of the ``p1``/``p2`` embed, whose address arrays
    are the protocols' constants, and those parse_trace has checked."""
    mails: list[Mail] = []
    append = mails.append
    for tick, doc, addrs in zip(ticks, docs, addresses):
        mail = _new_mail(Mail)
        _set_mail_doc(mail, doc)
        _set_mail_addresses(mail, addrs)
        _set_mail_sent_at(mail, tick)
        append(mail)
    return mails


def _check_send_order(ticks: list[int], noun: str) -> None:
    """Raise ProtocolError unless the send ticks strictly increase."""
    if not all(map(lt, ticks, ticks[1:])):
        raise ProtocolError(f"{noun} is not sorted by send date")


def _columns(mails: Sequence[Mail]) -> tuple[list[int], list[Document],
                                               list[tuple[str, ...]]]:
    """A mail sequence as three columns: send ticks, documents, address arrays."""
    return ([m.sent_at for m in mails], [m.doc for m in mails],
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

    The mails come as three columns of equal length: send ticks, documents
    and address arrays.
    """
    ticks, docs, addresses = columns
    return "".join([f"{tick}\t{doc.id}\t{','.join(addrs)}\n"
                    for tick, doc, addrs in zip(ticks, docs, addresses, strict=True)])


def _trace_columns(text: str) -> tuple[list[int], list[Document],
                                        list[tuple[str, ...]]]:
    """Parse a trace into three columns: send ticks, documents, address arrays.

    Blank lines are skipped.  A trace names few distinct document ids and
    address fields, so each distinct field is parsed and checked once per
    call, when first seen, and the lines that carry it share one Document
    or one address tuple.  A document id must fit the 8-byte encoding the
    PRF reads.
    """
    ticks: list[int] = []
    docs: list[Document] = []
    addresses: list[tuple[str, ...]] = []
    seen_docs: dict[str, Document] = {}
    split_fields: dict[str, tuple[str, ...]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
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
        doc = seen_docs.get(raw_doc)
        if doc is None:
            try:
                doc = seen_docs[raw_doc] = Document(int(raw_doc))
            except (ValueError, ConfigError) as e:
                raise ProtocolError(f"trace line {lineno}: {e}") from e
        docs.append(doc)
        addrs = split_fields.get(raw_addrs)
        if addrs is None:
            addrs = tuple(raw_addrs.split(","))
            if not all(addrs):
                raise ProtocolError(
                    f"trace line {lineno}: recipient addresses must be nonempty strings")
            split_fields[raw_addrs] = addrs
        addresses.append(addrs)
    return ticks, docs, addresses


def parse_trace(text: str) -> list[Mail]:
    """Inverse of format_trace: the trace's columns, one mail per line."""
    return _mails(*_trace_columns(text))


def write_trace(columns, path) -> None:
    """Write the mails given as three columns, as ``format_trace`` takes them.

    Format and encode the whole trace first, so a row that fails, or a
    column longer or shorter than the others, leaves `path` as it was.
    Rows are formatted and encoded _TRACE_CHUNK at a time, so the trace is
    held once, as bytes."""
    ticks, docs, addresses = map(iter, columns)
    chunks = []
    while chunk := list(islice(ticks, _TRACE_CHUNK)):
        n = len(chunk)
        chunks.append(format_trace((chunk, islice(docs, n), islice(addresses, n))).encode())
    for _ in chain(docs, addresses):
        raise ValueError("a trace column is longer than the send ticks")
    with open(path, "wb") as f:
        f.writelines(chunks)


def _read_trace_text(path) -> str:
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise ProtocolError(f"trace file {path} is not UTF-8 text: {e}") from e


def read_trace(path) -> list[Mail]:
    return parse_trace(_read_trace_text(path))
