"""Simulated email transport: mails, the mailbox merge, and the trace format.

A mail is the triple (document id, ordered address array, send tick).  Ticks
are abstract integers incremented once per sent mail, so timestamps are
always pairwise distinct and the two-mailbox merge is unambiguous.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple
from functools import partial
from itertools import chain, islice, pairwise, repeat
from operator import attrgetter, lt
from typing import Iterable, Iterator, Sequence

from .channel import Document
from .errors import ConfigError, ProtocolError, _quote


# The trace's field and line separators: a comma, a tab, and the line
# break "\n" with the "\r" that may end a line before it.
_SEPARATOR = re.compile("[,\t\r\n]")

# Rows write_trace formats per format_trace call: it holds the line strings
# and text of one chunk only.
_TRACE_CHUNK = 4096

# Bytes a trace file is read in: each piece is one read and the rest of
# its last line, so it ends a line and decodes alone.
_READ_PIECE = 1 << 16

# Bytes of a line that a piece may hold past its read, its break included:
# room for every line format_trace writes for p1 or p2, a 4300-digit
# tick (int's string limit), a 20-digit id and the 17-character address
# field "address1,address2" among them.
_LINE_MAX = 1 << 13

# Characters of distinct id and address fields the trace parser remembers,
# 2^16 fields of 4: past this many, at the end of a piece, it forgets them
# all, so many distinct or long fields cost parsing time, not memory.
_FIELD_MEMO = 1 << 18


class Mail(namedtuple("Mail", ("doc", "addresses", "sent_at"))):
    """One sent mail: a document id, its ordered address array, its send tick.

    An immutable tuple whose fields are checked however it is built:
    ``Mail(...)``, ``Mail._make(...)`` and ``mail._replace(...)`` all run
    ``__init__``.
    """

    __slots__ = ()

    def __init__(self, doc: int, addresses: tuple[str, ...], sent_at: int) -> None:
        # A mail holds only what one trace line carries, so format_trace
        # writes every mail and parse_trace reads the same mail back.
        # Type first, as in Document and Counter: a float or a bool is no tick.
        if type(sent_at) is not int:
            raise ProtocolError(
                f"send tick must be an int, not {type(sent_at).__name__}")
        try:
            Document(doc)
        except ConfigError as e:
            raise ProtocolError(str(e)) from None
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
                    f"recipient address {_quote(a)} holds a comma, tab or line break")
            try:
                a.encode()  # a trace is UTF-8, and a lone surrogate has no UTF-8 form
            except UnicodeEncodeError:
                raise ProtocolError(f"recipient address {_quote(a)} is not UTF-8 text") from None

    @classmethod
    def _make(cls, iterable: Iterable) -> Mail:
        # namedtuple's own _make, which _replace calls, skips __init__.
        return cls(*iterable)


def _mails(ticks: Iterable[int], ids: Iterable[int],
           addresses: Iterable[tuple[str, ...]]) -> list[Mail]:
    """Three columns as one mail per row, built in C without ``Mail``'s
    checks: for columns known to be valid, as those ``_trace_columns`` has
    checked and those of the ``p1``/``p2`` embed and the covertext oracle,
    whose ids are drawn and whose address arrays are the protocols' constants."""
    return list(map(tuple.__new__, repeat(Mail), zip(ids, addresses, ticks)))


def _check_send_order(ticks: list[int]) -> None:
    """Raise ProtocolError unless the send ticks strictly increase."""
    if not all(map(lt, ticks, ticks[1:])):
        raise ProtocolError("mail sequence is not sorted by send date")


def _columns(mails: Sequence[Mail]) -> tuple[list[int], list[int],
                                               list[tuple[str, ...]]]:
    """A mail sequence as three columns: send ticks, document ids, address arrays."""
    return ([m.sent_at for m in mails], [m.doc for m in mails],
            [m.addresses for m in mails])


def merge_by_date(seq1: Sequence[Mail], seq2: Sequence[Mail]) -> list[Mail]:
    """Merge two tick-sorted mail sequences into one, by send tick.

    Inputs must each be sorted ascending by sent_at with no tick shared
    between them; a duplicate tick would make the extracted bit order
    ambiguous and is rejected.  The sort finds the two ascending runs and
    merges them.
    """
    _check_send_order([m.sent_at for m in seq1])
    _check_send_order([m.sent_at for m in seq2])
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

    A line ends at a "\n", a "\r" just before it included, and lines are
    numbered across the pieces; blank lines are skipped.  Each distinct id
    or address field is parsed and checked once, when first seen, as
    ``Document`` and ``Mail`` check it, and the lines that carry it share
    one id or one address tuple; once the fields remembered pass
    _FIELD_MEMO characters, they are forgotten at the end of the piece.
    """
    seen_ids: dict[str, int] = {}
    split_fields: dict[str, tuple[str, ...]] = {}
    lineno = memo_chars = 0
    for piece in pieces:
        ticks: list[int] = []
        ids: list[int] = []
        addresses: list[tuple[str, ...]] = []
        for lineno, line in enumerate(piece.removesuffix("\n").split("\n"), start=lineno + 1):
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
                memo_chars += len(raw_doc)
            ids.append(doc_id)
            addrs = split_fields.get(raw_addrs)
            if addrs is None:
                addrs = tuple(raw_addrs.removesuffix("\r").split(","))
                if not all(addrs):
                    raise ProtocolError(
                        f"trace line {lineno}: recipient addresses must be nonempty strings")
                if bad := next(filter(_SEPARATOR.search, addrs), None):
                    raise ProtocolError(f"trace line {lineno}: recipient address "
                                        f"{_quote(bad)} holds a comma, tab or line break")
                split_fields[raw_addrs] = addrs
                memo_chars += len(raw_addrs)
            addresses.append(addrs)
        if memo_chars > _FIELD_MEMO:
            seen_ids.clear()
            split_fields.clear()
            memo_chars = 0
        yield ticks, ids, addresses


def parse_trace(text: str | Iterable[str]) -> list[Mail]:
    """Inverse of format_trace: one mail per line of the text, or of its pieces
    that each end a line, as ``read_trace`` reads a file, each parsed in turn."""
    pieces = [text] if isinstance(text, str) else text
    return list(chain.from_iterable(_mails(*columns) for columns in _trace_columns(pieces)))


def write_trace(columns, path) -> None:
    """Write the mails given as three columns, as ``format_trace`` takes them.

    Rows are formatted and encoded _TRACE_CHUNK at a time into a new file
    beside `path`, which replaces `path` only once every row is written, so
    the trace is never held whole, and a row that fails, or a column longer
    or shorter than the others, leaves `path` as it was.  The new file gets
    the mode ``open(path, "wb")`` would give, and an error opening it names
    `path`.  A `path` that exists and is no regular file, such as a device,
    is written in place.  No line's length is checked: ``read_trace`` is
    sure to read back only lines shorter than _LINE_MAX bytes.
    """
    ticks, ids, addresses = map(iter, columns)
    target = os.path.realpath(path)
    exists = os.path.exists(target)
    if exists and not os.path.isfile(target):
        name, f = None, open(target, "wb")
    else:
        # A replaced file's permission bits, which the new file never exceeds.
        mode = os.stat(target).st_mode & 0o7777 if exists else 0o666
        head, tail = os.path.split(target)
        name = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
        try:
            f = open(name, "xb", opener=partial(os.open, mode=mode))
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
            if exists:  # the bits the umask cleared at creation
                os.chmod(name, mode)
            os.replace(name, target)
    except BaseException:
        if name is not None:
            os.unlink(name)
        raise


def _trace_pieces(path) -> Iterator[str]:
    """A trace file's text, a piece at a time: one read of _READ_PIECE bytes
    and the rest of its last line (the next line, if the read ends one).

    Each piece but the last ends just after a "\n", so the pieces' lines are
    the lines of the whole text, and a piece is cut between whole
    characters, so its UTF-8 decodes alone; a byte that is not UTF-8 is
    named by its offset in the file.  The rest of the last line is read up
    to _LINE_MAX bytes; if it holds that many with no "\n", its line has
    _LINE_MAX bytes or more and is refused.  So a piece holds at most
    _READ_PIECE + _LINE_MAX bytes whatever the file.
    """
    with open(path, "rb") as f:
        offset = 0
        while data := f.read(_READ_PIECE) + (rest := f.readline(_LINE_MAX)):
            if len(rest) == _LINE_MAX and not rest.endswith(b"\n"):
                raise ProtocolError(f"trace file {path} has a line of {_LINE_MAX} or more "
                                    f"bytes at byte {offset + len(data)}")
            try:
                text = data.decode()
            except UnicodeDecodeError as e:
                raise ProtocolError(f"trace file {path} is not UTF-8 text: {e.reason} "
                                    f"at byte {offset + e.start}") from e
            yield text
            offset += len(data)


def read_trace(path) -> list[Mail]:
    """The mails of a trace file, parsed piece by piece as ``_trace_pieces``
    reads it, so its first fault is the one the piecewise extract meets."""
    return parse_trace(_trace_pieces(path))
