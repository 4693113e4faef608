"""Simulated email transport: mails, the mailbox merge, and the trace format.

A mail is the triple (document, ordered address array, send tick).  Ticks
are abstract integers incremented once per sent mail, so timestamps are
always pairwise distinct and the two-mailbox merge is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from operator import attrgetter
from typing import Iterable, Sequence

from .channel import Document
from .errors import ConfigError, ProtocolError


@dataclass(frozen=True, slots=True)
class Mail:
    doc: Document
    addresses: tuple[str, ...]
    sent_at: int

    def __post_init__(self) -> None:
        if not self.addresses:
            raise ProtocolError("mail must have at least one recipient address")
        if not all(self.addresses):
            raise ProtocolError("recipient addresses must be nonempty strings")


_set_mail_doc = Mail.doc.__set__
_set_mail_addresses = Mail.addresses.__set__
_set_mail_sent_at = Mail.sent_at.__set__
_new_mail = object.__new__


def _mail(doc: Document, addresses: tuple[str, ...], sent_at: int) -> Mail:
    """``Mail(doc, addresses, sent_at)`` without its address checks.

    Only for callers whose address array is already known to be valid:
    the protocols' constant arrays and fields parse_trace has checked.
    """
    mail = _new_mail(Mail)
    _set_mail_doc(mail, doc)
    _set_mail_addresses(mail, addresses)
    _set_mail_sent_at(mail, sent_at)
    return mail


def _check_send_order(mails: Sequence[Mail], noun: str) -> None:
    """Raise ProtocolError unless the send ticks strictly increase."""
    for a, b in pairwise(mails):
        if b.sent_at <= a.sent_at:
            raise ProtocolError(f"{noun} is not sorted by send date")


def merge_by_date(seq1: Sequence[Mail], seq2: Sequence[Mail]) -> list[Mail]:
    """Merge two tick-sorted mail sequences into one, by send tick.

    Inputs must each be sorted ascending by sent_at with no tick shared
    between them; a duplicate tick would make the extracted bit order
    ambiguous and is rejected.  The sort finds the two ascending runs and
    merges them.
    """
    _check_send_order(seq1, "mail sequence")
    _check_send_order(seq2, "mail sequence")
    merged = sorted([*seq1, *seq2], key=attrgetter("sent_at"))
    for a, b in pairwise(merged):
        if a.sent_at == b.sent_at:
            raise ProtocolError(f"duplicate send tick {a.sent_at} across mailboxes")
    return merged


def format_trace(mails: Iterable[Mail]) -> str:
    """Wire format: one mail per line, `sent_at <TAB> doc_id <TAB> addrs`."""
    return "".join([f"{m.sent_at}\t{m.doc.id}\t{','.join(m.addresses)}\n"
                    for m in mails])


def parse_trace(text: str) -> list[Mail]:
    """Inverse of format_trace; blank lines are skipped.

    A trace names few distinct document ids and address fields, so each
    distinct field is parsed and checked once per call, when first seen,
    and the mails that carry it share one Document or one address tuple.
    A document id must fit the 8-byte encoding the PRF reads.
    """
    mails = []
    docs: dict[str, Document] = {}
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
            sent_at = int(raw_sent)
        except ValueError as e:
            raise ProtocolError(f"trace line {lineno}: {e}") from e
        doc = docs.get(raw_doc)
        if doc is None:
            try:
                doc = docs[raw_doc] = Document(int(raw_doc))
            except (ValueError, ConfigError) as e:
                raise ProtocolError(f"trace line {lineno}: {e}") from e
        addrs = split_fields.get(raw_addrs)
        if addrs is None:
            addrs = tuple(raw_addrs.split(","))
            if not all(addrs):
                raise ProtocolError(
                    f"trace line {lineno}: recipient addresses must be nonempty strings")
            split_fields[raw_addrs] = addrs
        mails.append(_mail(doc, addrs, sent_at))
    return mails


def write_trace(mails: Iterable[Mail], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_trace(mails))


def read_trace(path) -> list[Mail]:
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise ProtocolError(f"trace file {path} is not UTF-8 text: {e}") from e
    return parse_trace(text)
