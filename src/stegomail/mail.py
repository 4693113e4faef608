"""Simulated email transport: mails, mailboxes, merge, and the trace format.

A mail is the triple (document, ordered address array, send tick).  Ticks
are abstract integers incremented once per sent mail, so timestamps are
always pairwise distinct and the two-mailbox merge is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .channel import Document
from .errors import ProtocolError


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


@dataclass
class Mailbox:
    """Mails received at one address, kept in ascending send order."""

    owner: str
    mails: list[Mail] = field(default_factory=list)

    def deliver(self, mail: Mail) -> None:
        if self.mails and mail.sent_at <= self.mails[-1].sent_at:
            raise ProtocolError(
                f"mailbox {self.owner!r}: out-of-order delivery at tick {mail.sent_at}")
        self.mails.append(mail)

    def __iter__(self):
        return iter(self.mails)

    def __len__(self) -> int:
        return len(self.mails)


def extract_document(s: Mail) -> Document:
    """The document carried by a mail."""
    return s.doc


def extract_addresses(s: Mail) -> tuple[str, ...]:
    """The destination address array, order preserved."""
    return s.addresses


def merge_by_date(seq1: Sequence[Mail], seq2: Sequence[Mail]) -> list[Mail]:
    """Linear two-way merge of two tick-sorted mail sequences.

    Inputs must each be sorted ascending by sent_at with no tick shared
    between them; a duplicate tick would make the extracted bit order
    ambiguous and is rejected.
    """
    for seq in (seq1, seq2):
        for a, b in zip(seq, seq[1:]):
            if b.sent_at <= a.sent_at:
                raise ProtocolError("mail sequence is not sorted by send date")
    out: list[Mail] = []
    i = j = 0
    while i < len(seq1) and j < len(seq2):
        t1, t2 = seq1[i].sent_at, seq2[j].sent_at
        if t1 == t2:
            raise ProtocolError(f"duplicate send tick {t1} across mailboxes")
        if t1 < t2:
            out.append(seq1[i])
            i += 1
        else:
            out.append(seq2[j])
            j += 1
    out.extend(seq1[i:])
    out.extend(seq2[j:])
    return out


def deliver(mails: Iterable[Mail]) -> dict[str, Mailbox]:
    """Route each mail to every recipient's mailbox (lossless, in order)."""
    boxes: dict[str, Mailbox] = {}
    for mail in mails:
        for addr in mail.addresses:
            boxes.setdefault(addr, Mailbox(addr)).deliver(mail)
    return boxes


def format_trace(mails: Iterable[Mail]) -> str:
    """Wire format: one mail per line, `sent_at <TAB> doc_id <TAB> addrs`."""
    lines = [f"{m.sent_at}\t{m.doc.id}\t{','.join(m.addresses)}" for m in mails]
    return "".join(line + "\n" for line in lines)


def parse_trace(text: str) -> list[Mail]:
    mails = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ProtocolError(f"trace line {lineno}: expected 3 tab-separated fields")
        try:
            sent_at = int(parts[0])
            doc_id = int(parts[1])
        except ValueError as e:
            raise ProtocolError(f"trace line {lineno}: {e}") from e
        if doc_id < 0:
            raise ProtocolError(f"trace line {lineno}: negative document id {doc_id}")
        addrs = tuple(parts[2].split(","))
        mails.append(Mail(Document(doc_id), addrs, sent_at))
    return mails


def write_trace(mails: Iterable[Mail], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_trace(mails))


def read_trace(path) -> list[Mail]:
    with open(path, encoding="utf-8") as f:
        return parse_trace(f.read())
