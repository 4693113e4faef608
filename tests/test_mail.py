import io
import os
import re
import stat
import tracemalloc
from bisect import bisect_right
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stegomail import (Mail, ProtocolError, RngState, merge_by_date,
                       read_trace, write_trace)
from stegomail import mail as mail_module
from stegomail.cli import run
from stegomail.mail import (_TRACE_CHUNK, _columns, _trace_columns, _trace_pieces,
                            format_trace, parse_trace)
from stegomail.protocols import P1_ARRAYS, P2_ARRAYS

from conftest import trace_columns_reference


# Addresses may hold anything but the field separators and the line break.
_SEPARATORS = ",\t\r\n"


def mk(tick, doc_id=0, addrs=("address1",)):
    return Mail(doc_id, tuple(addrs), tick)


def test_extract_document_projection():
    assert mk(3, doc_id=7).doc == 7
    assert mk(0, doc_id=0, addrs=("address2", "address1")).doc == 0


def test_extract_addresses_preserves_order():
    assert mk(1, addrs=("address2",)).addresses == ("address2",)
    both = mk(1, addrs=("address1", "address2")).addresses
    assert both == ("address1", "address2")
    assert both != ("address2", "address1")


def test_mail_requires_recipient():
    with pytest.raises(ProtocolError,
                       match="^mail must have at least one recipient address$"):
        Mail(0, (), 0)
    for addrs in (("",), (None,), ("address1", "")):
        with pytest.raises(ProtocolError,
                           match="^recipient addresses must be nonempty strings$"):
            Mail(0, addrs, 0)


def test_mail_holds_only_what_a_trace_line_carries():
    for doc, addrs, tick, message in (
            (1, (5,), 0, "^recipient addresses must be nonempty strings$"),
            (1, ("address1", b"x"), 0,
             "^recipient addresses must be nonempty strings$"),
            (1, "address1", 0, "^recipient addresses must be a tuple, not str$"),
            (1, ["address1"], 0, "^recipient addresses must be a tuple, not list$"),
            (1, ("address1", "a\ud800"), 0,
             "^recipient address 'a\\\\ud800' is not UTF-8 text$"),
            (-1, ("address1",), 0, "^negative document id -1$"),
            (2 ** 64, ("address1",), 0,
             "^document id 18446744073709551616 does not fit in 8 bytes$"),
            (1.0, ("address1",), 0, "^document id must be an int, not float$"),
            (True, ("address1",), 0, "^document id must be an int, not bool$"),
            (1, ("address1",), 1.0, "^send tick must be an int, not float$"),
            (1, ("address1",), True, "^send tick must be an int, not bool$"),
            (1, ("address1",), "0", "^send tick must be an int, not str$")):
        with pytest.raises(ProtocolError, match=message):
            Mail(doc, addrs, tick)


def test_mail_rejects_every_trace_separator_in_an_address():
    # The field separators and the line break "\n" with the "\r" that may
    # end a line before it, which the address strategy below leaves out too.
    for c in _SEPARATORS:
        for addr in (c, f"a{c}b", f"ab{c}"):
            with pytest.raises(ProtocolError, match="holds a comma, tab or line break$"):
                Mail(1, ("address1", addr), 0)
    # Any other character, whitespace and other line breaks str.splitlines
    # knows among them, is an ordinary one.
    for addr in ("a b", "a\x0bb", "a\x85b", "a\u2028b"):
        assert Mail(1, ("address1", addr), 0).addresses == ("address1", addr)


def test_mail_errors_quote_a_long_address_short():
    long = "a" * (1 << 20)
    for addr, message in ((long + ",", "holds a comma"), (long + "\ud800", "is not UTF-8")):
        with pytest.raises(ProtocolError, match=message) as e:
            Mail(1, (addr,), 0)
        assert f"... ({len(repr(addr))} characters)" in str(e.value)
        assert len(str(e.value)) < 200


def test_write_trace_of_a_bad_mail_leaves_the_file_as_it_was(tmp_path):
    # At _TRACE_CHUNK + 3 the bad mail is in the second chunk, so a writer
    # that opened the file after the first one would fail here.
    path = tmp_path / "trace.tsv"
    path.write_text("0\t1\taddress1\n")
    for bad_at in (1, _TRACE_CHUNK + 3):
        good = [mk(t) for t in range(bad_at)]
        for addrs, error in (((5,), TypeError), (("a\ud800",), UnicodeEncodeError)):
            with pytest.raises(error):
                write_trace(_columns([*good, *mail_module._mails([bad_at], [1], [addrs])]), path)
            assert path.read_text() == "0\t1\taddress1\n"


def _drawn_mails(arrays, n, seed=7):
    """n mails with drawn document ids and address arrays, in send order."""
    rng = RngState(seed)
    drawn = [(rng.randrange(1024), arrays[rng.bits(1)[0]]) for _ in range(n)]
    return mail_module._mails(range(n), [i for i, _ in drawn], [a for _, a in drawn])


@pytest.mark.parametrize("as_generator", [False, True], ids=["list", "generator"])
@pytest.mark.parametrize("n", [0, 1, _TRACE_CHUNK - 1, _TRACE_CHUNK,
                               _TRACE_CHUNK + 1, 2 * _TRACE_CHUNK + 7])
@pytest.mark.parametrize("arrays", [P1_ARRAYS, P2_ARRAYS], ids=["p1", "p2"])
def test_write_trace_writes_the_formatted_trace(tmp_path, arrays, n, as_generator):
    columns = _columns(_drawn_mails(arrays, n))
    path = tmp_path / "trace.tsv"
    write_trace(tuple((x for x in c) for c in columns) if as_generator else columns, path)
    assert path.read_bytes() == format_trace(columns).encode()


@pytest.mark.parametrize("odd", [0, 1, 2])
@pytest.mark.parametrize("n", [1, _TRACE_CHUNK, _TRACE_CHUNK + 3])
def test_write_trace_of_unequal_columns_leaves_the_file_as_it_was(tmp_path, n, odd):
    # One column a row longer or shorter than the other two; at _TRACE_CHUNK
    # the extra row starts a chunk of its own.
    path = tmp_path / "trace.tsv"
    path.write_text("0\t1\taddress1\n")
    for delta in (-1, 1):
        columns = list(_columns(_drawn_mails(P1_ARRAYS, n + delta)))
        columns[odd] = _columns(_drawn_mails(P1_ARRAYS, n))[odd]
        with pytest.raises(ValueError):
            write_trace(columns, path)
        with pytest.raises(ValueError):
            format_trace(columns)
        assert path.read_text() == "0\t1\taddress1\n"


def test_write_trace_holds_the_trace_about_once(tmp_path):
    # Counted from after the columns are built.  Formatting the whole trace
    # into one text before encoding it peaks at ~4x the bytes written.
    columns = _columns(_drawn_mails(P2_ARRAYS, 65536))
    path = tmp_path / "trace.tsv"
    tracemalloc.start()
    try:
        write_trace(columns, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = path.stat().st_size
    assert peak <= 2 * written, (peak, written)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.lists(st.text(max_size=4)
                | st.text(st.characters() | st.characters(categories=("Cs",)), max_size=4),
                max_size=3).map(tuple), st.integers())
def test_every_mail_that_builds_reads_back_from_its_trace(doc, addrs, tick):
    # The second alphabet weights in lone surrogates, which the default one
    # almost never draws and no UTF-8 trace can hold.
    try:
        mail = Mail(doc, addrs, tick)
    except ProtocolError:
        return
    # Through UTF-8, as write_trace and read_trace go.
    assert parse_trace(format_trace(_columns([mail])).encode().decode()) == [mail]


def test_mail_round_trip_construct_extract():
    rng = RngState(41)
    for t in range(1_000):
        doc = rng.randrange(1_000)
        mail = Mail(doc, ("address1",), t)
        assert mail.doc == doc
        assert mail.addresses == ("address1",)


def test_merge_examples():
    merged = merge_by_date([mk(1), mk(3)], [mk(2)])
    assert [m.sent_at for m in merged] == [1, 2, 3]
    xs = [mk(0), mk(5)]
    assert merge_by_date(xs, []) == xs
    assert merge_by_date([], xs) == xs


def test_merge_matches_full_sort_oracle():
    rng = RngState(43)
    for _ in range(1_000):
        ticks = sorted({rng.randrange(10_000) for _ in range(20)})
        left, right = [], []
        for t in ticks:
            (left if rng.bits(1)[0] else right).append(mk(t))
        merged = merge_by_date(left, right)
        assert merged == sorted(left + right, key=lambda m: m.sent_at)


def test_merge_rejects_duplicate_ticks():
    with pytest.raises(ProtocolError):
        merge_by_date([mk(1)], [mk(1)])
    # The error names the smallest tick the two boxes share.
    with pytest.raises(ProtocolError,
                       match="^duplicate send tick 4 across mailboxes$"):
        merge_by_date([mk(1), mk(4), mk(6), mk(9)], [mk(2), mk(4), mk(9)])


def test_merge_rejects_unsorted_input():
    # Box 1's order is checked first, then box 2's, then ticks shared
    # across the boxes.
    for box1, box2 in (([mk(2), mk(1)], []), ([], [mk(3), mk(3)]),
                       ([mk(1), mk(1)], [mk(1)]), ([mk(1)], [mk(5), mk(1)])):
        with pytest.raises(ProtocolError,
                           match="^mail sequence is not sorted by send date$"):
            merge_by_date(box1, box2)


def test_trace_round_trip_bit_exact(tmp_path):
    mails = [mk(0, 7, ("address1",)), mk(1, 3, ("address2", "address1")),
             mk(5, 0, ("address2",))]
    text = format_trace(_columns(mails))
    assert parse_trace(text) == mails
    path = tmp_path / "trace.tsv"
    write_trace(_columns(mails), path)
    assert read_trace(path) == mails
    write_trace(_columns(read_trace(path)), tmp_path / "again.tsv")
    assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()


def test_trace_rejects_malformed_lines():
    with pytest.raises(ProtocolError):
        parse_trace("1\t2\n")
    with pytest.raises(ProtocolError):
        parse_trace("one\t2\taddress1\n")


def test_parse_trace_rejects_negative_document_id():
    with pytest.raises(ProtocolError, match="trace line 2: negative document id"):
        parse_trace("0\t1\taddress1\n1\t-4\taddress2\n")


def test_parse_trace_rejects_document_id_past_8_bytes():
    top = parse_trace(f"0\t{2 ** 64 - 1}\taddress1\n")
    assert top[0].doc == 2 ** 64 - 1
    with pytest.raises(ProtocolError, match="^trace line 2: document id 18446744073709551616 "
                                            "does not fit in 8 bytes$"):
        parse_trace(f"0\t1\taddress1\n1\t{2 ** 64}\taddress2\n")


def test_parse_trace_checks_each_distinct_field_once(documents_built):
    # A field seen before is not re-checked, but a bad one on a later line
    # still names that line.
    mails = parse_trace("0\t5\taddress1\n1\t5\taddress1\n2\t6\taddress1\n")
    assert documents_built == [5, 6]
    assert mails[0].addresses is mails[1].addresses is mails[2].addresses
    assert mails == [mk(0, 5), mk(1, 5), mk(2, 6)]
    with pytest.raises(ProtocolError, match="^trace line 3: recipient addresses"):
        parse_trace("0\t5\taddress1\n1\t5\taddress1\n2\t5\t,address1\n")
    with pytest.raises(ProtocolError, match="^trace line 3: negative document id"):
        parse_trace("0\t5\taddress1\n1\t5\taddress1\n2\t-5\taddress1\n")


def test_mail_value_contract():
    mail = mk(3, doc_id=7)
    assert isinstance(mail, tuple) and Mail._fields == ("doc", "addresses", "sent_at")
    assert "__init__" in vars(Mail)  # the benchmark's tracer wraps it
    with pytest.raises(AttributeError):
        mail.sent_at = 4
    with pytest.raises(AttributeError):
        mail.addresses = ("address2",)
    assert tuple(mail) == (7, ("address1",), 3)
    assert mail == Mail(7, ("address1",), 3)
    assert mail != mk(3, doc_id=7, addrs=("address2",))
    assert hash(mail) == hash(Mail(7, ("address1",), 3))
    assert repr(mail) == "Mail(doc=7, addresses=('address1',), sent_at=3)"
    assert Mail(doc=7, addresses=("address1",), sent_at=3) == mail
    assert mail._replace(sent_at=9) == Mail(7, ("address1",), 9)
    assert type(mail._replace(sent_at=9)) is Mail
    with pytest.raises(ProtocolError, match="at least one recipient"):
        mail._replace(addresses=())
    assert Mail._make([7, ("address1",), 3]) == mail
    with pytest.raises(ProtocolError, match="^send tick must be an int, not float$"):
        Mail._make([7, ("address1",), 3.0])
    with pytest.raises(ProtocolError, match="^negative document id -1$"):
        Mail._make(iter([-1, ("address1",), 3]))


def test_trace_error_messages_name_the_line():
    with pytest.raises(ProtocolError,
                       match="^trace line 2: expected 3 tab-separated fields$"):
        parse_trace("0\t1\taddress1\n1\t2\n")
    with pytest.raises(ProtocolError, match="^trace line 1: invalid literal for int"):
        parse_trace("one\t2\taddress1\n")
    with pytest.raises(ProtocolError, match="^trace line 3: invalid literal for int"):
        parse_trace("0\t1\taddress1\n\n2\tx\taddress1\n")
    with pytest.raises(ProtocolError,
                       match="^trace line 1: recipient addresses must be nonempty"):
        parse_trace("0\t1\taddress1,\n")
    with pytest.raises(ProtocolError, match="^trace line 2: recipient address 'a\\\\rb' holds a"):
        parse_trace("0\t1\taddress1\r\n1\t2\ta\rb\r\n")


def test_parsed_mails_share_address_tuples():
    mails = parse_trace("0\t1\taddress1\n1\t2\taddress2,address1\n"
                        "2\t3\taddress1\n3\t4\taddress2,address1\n")
    assert mails[0].addresses == ("address1",)
    assert mails[0].addresses is mails[2].addresses
    assert mails[1].addresses is mails[3].addresses
    assert mails[0].addresses is not mails[1].addresses


_addresses = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters=_SEPARATORS),
    min_size=1, max_size=8)
# Ids fit the PRF's 8-byte encoding; ticks are unbounded.
_mails = st.builds(
    Mail, st.integers(min_value=0, max_value=2 ** 64 - 1),
    st.lists(_addresses, min_size=1, max_size=3).map(tuple),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70))


@settings(max_examples=200, deadline=None)
@given(st.lists(_mails, max_size=8))
def test_trace_round_trip_property(mails):
    assert parse_trace(format_trace(_columns(mails))) == mails


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from("0123456789-+ _\t\n\r,a\u00a0\u0663"))
       | st.text())
def test_parse_trace_raises_only_protocol_error(text):
    try:
        mails = parse_trace(text)
    except ProtocolError:
        return
    assert all(0 <= m.doc < 2 ** 64 and m.addresses and all(m.addresses)
               for m in mails)


# --- the piecewise trace reader against the whole-text reference parser ------

def _read_columns(path):
    """A trace file's columns as the CLI reads them, piece by piece, joined."""
    ticks, ids, addresses = [], [], []
    for piece_ticks, piece_ids, piece_addresses in _trace_columns(_trace_pieces(path)):
        ticks += piece_ticks
        ids += piece_ids
        addresses += piece_addresses
    return ticks, ids, addresses


def _outcome(read, *args):
    """The columns read, or the error class and message."""
    try:
        return read(*args)
    except ProtocolError as e:
        return type(e), str(e)


def _read_in_pieces(path, size, memo=None):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mail_module, "_READ_PIECE", size)
        if memo is not None:
            patch.setattr(mail_module, "_FIELD_MEMO", memo)
        return _outcome(_read_columns, path)


# The trace's line break, "\n" or "\r\n", and every other character
# str.splitlines breaks at, which is an ordinary one in a trace; blank,
# whitespace-only and malformed lines next to well-formed ones.
_TERMINATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029"]
_GOOD_LINES = st.builds(
    "{}\t{}\t{}".format, st.integers(-3, 10 ** 6),
    st.integers(0, 40) | st.integers(0, 2 ** 64 - 1),
    st.sampled_from(["address1", "address2", "address1,address2", "aé,b"]))
_ODD_LINES = st.sampled_from(
    ["", " ", "\t", " \t ", "\u3000", "\xa0", " 7 \t 3 \taddress1",
     "1\t2", "one\t2\taddress1", "1\t-4\taddress1", f"1\t{2 ** 64}\taddress1",
     "1\t2\taddress1,", "1\t2\t\t", "1\t2\ta\tb", "1\t\u0663\taddress1",
     "1\t2\ta\rb", "1\t2\taddress1\r", "1\t2\r", "\r"])
_TRACE_TEXTS = st.builds(
    lambda pairs, last: "".join(line + end for line, end in pairs) + last,
    st.lists(st.tuples(_GOOD_LINES | _ODD_LINES, st.sampled_from(_TERMINATORS)),
             max_size=12),
    st.just("") | _GOOD_LINES)


@settings(max_examples=300, deadline=None)
@given(text=_TRACE_TEXTS, size=st.integers(1, 24), memo=st.none() | st.integers(0, 3))
def test_piecewise_reader_matches_the_whole_text_parser(tmp_path_factory, text, size, memo):
    # Small pieces put read boundaries everywhere: inside "\r\n", inside a
    # multibyte character, between a line and its break.  A small field
    # memo is forgotten between pieces.
    path = tmp_path_factory.mktemp("trace") / "trace.tsv"
    path.write_bytes(text.encode())
    assert _read_in_pieces(path, size, memo) == _outcome(trace_columns_reference, text)


# "\r\n" across every possible read boundary, with a lone "\r" and "\n\r" too.
_FIXED_TRACES = ["0\t1\taddress1\r\n1\t2\taddress2\r\n",
                 "0\t1\taddress1\r1\t2\taddress2\n\r2\t3\taddress1",
                 "0\t1\taddress1\r\n\r\n\n1\t2\taddress2  \n2\tx\taddress1\n"]


@pytest.mark.parametrize("text", _FIXED_TRACES)
def test_piecewise_reader_at_every_piece_size(tmp_path, text):
    path = tmp_path / "trace.tsv"
    path.write_bytes(text.encode())
    expected = _outcome(trace_columns_reference, text)
    for size in range(1, len(text.encode()) + 2):
        assert _read_in_pieces(path, size) == expected, size


@pytest.mark.parametrize("size", [1, 5, 16, 1 << 16])
def test_trace_pieces_end_lines_and_rebuild_the_file(tmp_path, size, monkeypatch):
    text = "".join(f"{t}\t{t % 7}\taddress{t % 2 + 1}\r\n" for t in range(200)) + "200\t0\ta"
    path = tmp_path / "trace.tsv"
    path.write_bytes(text.encode())
    monkeypatch.setattr(mail_module, "_READ_PIECE", size)
    pieces = list(_trace_pieces(path))
    assert "".join(pieces) == text
    assert all(piece.endswith("\n") for piece in pieces[:-1])
    # A piece holds at least one whole read, and the line that read ends in.
    assert all(len(piece.encode()) >= size for piece in pieces[:-1])
    # A piece holds at most one read past its last full line.
    longest = max(map(len, text.splitlines(keepends=True)))
    assert max(map(len, pieces)) <= longest + size
    path.write_bytes(b"")
    assert list(_trace_pieces(path)) == []


def test_read_trace_reads_the_pieces_as_one_trace(tmp_path, monkeypatch):
    mails = _drawn_mails(P2_ARRAYS, 300)
    path = tmp_path / "trace.tsv"
    write_trace(_columns(mails), path)
    monkeypatch.setattr(mail_module, "_READ_PIECE", 64)
    assert read_trace(path) == mails


def test_a_line_past_the_line_limit_is_refused_unread(tmp_path, monkeypatch):
    # Under a small limit, a 4 MiB one-line trace is refused after one read
    # and one limit's worth of the rest of its line, not read whole.
    monkeypatch.setattr(mail_module, "_LINE_MAX", 1024)
    path = tmp_path / "trace.tsv"
    path.write_bytes(b"0\t1\t" + b"a" * (4 << 20) + b"\n")
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError, match=f"has a line of 1024 or more bytes "
                                                f"at byte {(1 << 16) + 1024}$"):
            read_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_the_line_limit_counts_the_rest_of_a_line_past_its_read(tmp_path, monkeypatch):
    # One byte per read: all of a line but its first byte is the rest, which
    # may hold _LINE_MAX bytes, its "\n" included.
    monkeypatch.setattr(mail_module, "_READ_PIECE", 1)
    monkeypatch.setattr(mail_module, "_LINE_MAX", 16)
    path = tmp_path / "trace.tsv"
    for k, ok in ((12, True), (13, False)):
        path.write_text("0\t1\ta\n1\t2\t" + "a" * k + "\n")
        if ok:
            assert read_trace(path) == [Mail(1, ("a",), 0), Mail(2, ("a" * k,), 1)]
        else:
            with pytest.raises(ProtocolError, match="line of 16 or more bytes at byte 23$"):
                read_trace(path)


def test_the_line_limit_admits_every_p1_and_p2_line(tmp_path, monkeypatch):
    # The longest line format_trace writes for p1 or p2: a 4300-digit tick
    # (int's string limit), a 20-digit id and p2's address field, read with
    # one byte per read so that almost all of it lies past the read.
    tick = -(10 ** 4300 - 1)
    columns = ([tick, tick + 1], [2 ** 64 - 1, 0], list(P2_ARRAYS))
    path = tmp_path / "trace.tsv"
    write_trace(columns, path)
    assert max(map(len, path.read_bytes().splitlines(keepends=True))) == 4341
    monkeypatch.setattr(mail_module, "_READ_PIECE", 1)
    assert read_trace(path) == [Mail(2 ** 64 - 1, P2_ARRAYS[0], tick),
                                Mail(0, P2_ARRAYS[1], tick + 1)]


@pytest.mark.parametrize("end", ["\r", "\x0b", "\x85", "\u2028", "\r\n"])
def test_a_trace_of_short_lines_with_any_break_is_read_whole(tmp_path, monkeypatch, capsys,
                                                             end):
    # Only "\n" ends a trace line.  Lines that end in "\r\n" read as their
    # "\n" form; the other breaks of str.splitlines are ordinary characters,
    # so a trace of short lines that end in one is one long line, refused
    # after one read and the line limit.
    text = "".join(f"{t}\t{t % 3}\taddress{t % 2 + 1}{end}" for t in range(10_000))
    path = tmp_path / "trace.tsv"
    path.write_bytes(text.encode())
    if end != "\r\n":
        assert run(["extract", "--protocol", "p1", "--key", "00" * 16, "--in", str(path)]) == 3
        assert capsys.readouterr().err == (
            f"protocol error: trace file {path} has a line of 8192 or more bytes "
            f"at byte {(1 << 16) + (1 << 13)}\n")
        return
    mails = parse_trace(text.replace("\r\n", "\n"))
    assert len(mails) == 10_000
    assert read_trace(path) == parse_trace(text) == mails
    monkeypatch.setattr(mail_module, "_READ_PIECE", 7)
    monkeypatch.setattr(mail_module, "_LINE_MAX", 40)
    assert read_trace(path) == mails
    assert max(len(piece.encode()) for piece in _trace_pieces(path)) <= 7 + 40


def _check_line_limit(path, text, size, limit):
    """Under a small limit, the reader reads what the whole-text parser reads,
    or refuses, at byte N, a line of `limit` bytes or more (its "\n"
    included) that holds byte N - 1; and no piece holds more than a read and
    the limit."""
    sizes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mail_module, "_READ_PIECE", size)
        patch.setattr(mail_module, "_LINE_MAX", limit)
        got = _outcome(_read_columns, path)
        try:
            for piece in _trace_pieces(path):
                sizes.append(len(piece.encode()))
        except ProtocolError:
            pass
    assert max(sizes, default=0) <= size + limit
    if got == _outcome(trace_columns_reference, text):
        return
    kind, message = got
    end = int(re.fullmatch(f"trace file .* has a line of {limit} or more bytes at byte (\\d+)",
                           message)[1])
    lines = io.BytesIO(text.encode()).readlines()
    starts = list(accumulate(map(len, lines), initial=0))
    assert len(lines[bisect_right(starts, end - 1) - 1]) >= limit


@settings(max_examples=300, deadline=None)
@given(text=_TRACE_TEXTS, size=st.integers(1, 24), limit=st.integers(1, 40))
def test_the_line_limit_refuses_only_a_long_line(tmp_path_factory, text, size, limit):
    path = tmp_path_factory.mktemp("trace") / "trace.tsv"
    path.write_bytes(text.encode())
    _check_line_limit(path, text, size, limit)


def test_the_line_limit_at_every_read_and_limit_size(tmp_path):
    # Every read and limit size puts a multibyte character across the end of
    # a read and a "\r\n" across the end of a limit; the malformed last line
    # checks that the line numbers hold.
    text = "0\t1\taddress1\u2028\n1\t2\ta\r\n2\t3\taddress1\u2029\r\n3\t4\ta\x85\n4\tx\ta"
    path = tmp_path / "trace.tsv"
    path.write_bytes(text.encode())
    for size in range(1, len(text.encode()) + 2):
        for limit in range(1, 24):
            _check_line_limit(path, text, size, limit)


# --- write_trace writes beside the path and replaces it ----------------------

def test_failed_write_trace_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "trace.tsv"
    path.write_text("0\t1\taddress1\n")
    good = [mk(t) for t in range(_TRACE_CHUNK + 3)]
    with pytest.raises(TypeError):
        write_trace(_columns([*good, *mail_module._mails([_TRACE_CHUNK + 3], [1], [(5,)])]), path)
    assert os.listdir(tmp_path) == ["trace.tsv"]
    assert path.read_text() == "0\t1\taddress1\n"


def test_write_trace_gives_the_mode_of_a_plain_open(tmp_path):
    # Not the 0o600 of a temporary file from tempfile.mkstemp.
    plain = tmp_path / "plain"
    with open(plain, "wb"):
        pass
    path = tmp_path / "trace.tsv"
    write_trace(_columns([mk(0)]), path)
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["plain", "trace.tsv"]


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o664])
def test_write_trace_keeps_the_mode_of_the_file_it_replaces(mode, tmp_path, capsys):
    # As open(path, "wb") keeps it: a private trace stays private, through the
    # library writer and through `stegomail embed --out`.  Under a umask of
    # 022, 0o664 loses its group write bit when the new file is created.
    path = tmp_path / "trace.tsv"
    path.write_text("stale\n")
    path.chmod(mode)
    umask = os.umask(0o022)
    try:
        write_trace(_columns([mk(0)]), path)
    finally:
        os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_text() == "0\t0\taddress1\n"
    message = tmp_path / "message.hex"
    message.write_text("a5")
    channel = os.path.join(os.path.dirname(__file__), "..", "channels", "uniform4.json")
    assert run(["embed", "--protocol", "p2", "--key", "00" * 16, "--message", str(message),
                "--channel", channel, "--seed", "1", "--out", str(path)]) == 0
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert len(path.read_text().splitlines()) == 8
    assert sorted(os.listdir(tmp_path)) == ["message.hex", "trace.tsv"]


def test_write_trace_through_a_symlink_writes_its_target(tmp_path):
    target = tmp_path / "target.tsv"
    target.write_text("stale\n")
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    write_trace(_columns([mk(0)]), link)
    assert link.is_symlink()
    assert target.read_text() == "0\t0\taddress1\n"


def test_write_trace_writes_a_device_in_place(monkeypatch):
    # Replacing os.devnull with a regular file would break it for every
    # process, so os.replace must not be reached; here it would raise.
    def no_replace(*args):
        raise AssertionError(f"os.replace{args}")

    monkeypatch.setattr(mail_module.os, "replace", no_replace)
    write_trace(_columns([mk(0)]), os.devnull)
    assert not os.path.isfile(os.devnull)
