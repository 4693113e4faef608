import dataclasses
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stegomail import (Document, Mail, ProtocolError, RngState, merge_by_date,
                       read_trace, write_trace)
from stegomail.mail import _TRACE_CHUNK, _columns, _mail, format_trace, parse_trace
from stegomail.protocols import P1_ARRAYS, P2_ARRAYS


def mk(tick, doc_id=0, addrs=("address1",)):
    return Mail(Document(doc_id), tuple(addrs), tick)


def test_extract_document_projection():
    assert mk(3, doc_id=7).doc == Document(7)
    assert mk(0, doc_id=0, addrs=("address2", "address1")).doc == Document(0)


def test_extract_addresses_preserves_order():
    assert mk(1, addrs=("address2",)).addresses == ("address2",)
    both = mk(1, addrs=("address1", "address2")).addresses
    assert both == ("address1", "address2")
    assert both != ("address2", "address1")


def test_mail_requires_recipient():
    with pytest.raises(ProtocolError,
                       match="^mail must have at least one recipient address$"):
        Mail(Document(0), (), 0)
    for addrs in (("",), (None,), ("address1", "")):
        with pytest.raises(ProtocolError,
                           match="^recipient addresses must be nonempty strings$"):
            Mail(Document(0), addrs, 0)


def test_mail_holds_only_what_a_trace_line_carries():
    for doc, addrs, tick, message in (
            (Document(1), (5,), 0, "^recipient addresses must be nonempty strings$"),
            (Document(1), ("address1", b"x"), 0,
             "^recipient addresses must be nonempty strings$"),
            (Document(1), "address1", 0, "^recipient addresses must be a tuple, not str$"),
            (Document(1), ["address1"], 0, "^recipient addresses must be a tuple, not list$"),
            (Document(1), ("address1", "a\ud800"), 0,
             "^recipient address 'a\\\\ud800' is not UTF-8 text$"),
            (1, ("address1",), 0, "^mail document must be a Document, not int$"),
            (Document(1), ("address1",), 1.0, "^send tick must be an int, not float$"),
            (Document(1), ("address1",), True, "^send tick must be an int, not bool$"),
            (Document(1), ("address1",), "0", "^send tick must be an int, not str$")):
        with pytest.raises(ProtocolError, match=message):
            Mail(doc, addrs, tick)


def test_mail_rejects_every_trace_separator_in_an_address():
    # Every character str.splitlines breaks at, which the address strategy
    # below leaves out too.
    breaks = [c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) > 1]
    assert sorted(breaks) == sorted(_LINE_BREAKS)
    for c in [",", "\t", *breaks]:
        for addr in (c, f"a{c}b", f"ab{c}"):
            with pytest.raises(ProtocolError, match="holds a comma, tab or line break$"):
                Mail(Document(1), ("address1", addr), 0)


def test_write_trace_of_a_bad_mail_leaves_the_file_as_it_was(tmp_path):
    # At _TRACE_CHUNK + 3 the bad mail is in the second chunk, so a writer
    # that opened the file after the first one would fail here.
    path = tmp_path / "trace.tsv"
    path.write_text("0\t1\taddress1\n")
    for bad_at in (1, _TRACE_CHUNK + 3):
        good = [mk(t) for t in range(bad_at)]
        for addrs, error in (((5,), TypeError), (("a\ud800",), UnicodeEncodeError)):
            with pytest.raises(error):
                write_trace(_columns([*good, _mail(Document(1), addrs, bad_at)]), path)
            assert path.read_text() == "0\t1\taddress1\n"


def _drawn_mails(arrays, n, seed=7):
    """n mails with drawn document ids and address arrays, in send order."""
    rng = RngState(seed)
    return [_mail(Document(rng.randrange(1024)), arrays[rng.bits(1)[0]], t)
            for t in range(n)]


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
@given(st.builds(Document, st.integers(min_value=0, max_value=2 ** 64 - 1)),
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
        doc = Document(rng.randrange(1_000))
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
    assert top[0].doc.id == 2 ** 64 - 1
    with pytest.raises(ProtocolError, match="^trace line 2: document id 18446744073709551616 "
                                            "does not fit in 8 bytes$"):
        parse_trace(f"0\t1\taddress1\n1\t{2 ** 64}\taddress2\n")


def test_parse_trace_checks_each_distinct_field_once():
    # A field seen before is not re-checked, but a bad one on a later line
    # still names that line.
    mails = parse_trace("0\t5\taddress1\n1\t5\taddress1\n2\t6\taddress1\n")
    assert mails[0].doc is mails[1].doc
    assert mails[0].doc is not mails[2].doc
    assert mails == [mk(0, 5), mk(1, 5), mk(2, 6)]
    with pytest.raises(ProtocolError, match="^trace line 3: recipient addresses"):
        parse_trace("0\t5\taddress1\n1\t5\taddress1\n2\t5\t,address1\n")
    with pytest.raises(ProtocolError, match="^trace line 3: negative document id"):
        parse_trace("0\t5\taddress1\n1\t5\taddress1\n2\t-5\taddress1\n")


def test_mail_value_contract():
    mail = mk(3, doc_id=7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        mail.sent_at = 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        mail.addresses = ("address2",)
    assert mail == Mail(Document(7), ("address1",), 3)
    assert mail != mk(3, doc_id=7, addrs=("address2",))
    assert hash(mail) == hash(Mail(Document(7), ("address1",), 3))
    assert repr(mail) == ("Mail(doc=Document(id=7), "
                          "addresses=('address1',), sent_at=3)")
    assert Mail(doc=Document(7), addresses=("address1",), sent_at=3) == mail
    assert dataclasses.replace(mail, sent_at=9).sent_at == 9
    with pytest.raises(ProtocolError, match="at least one recipient"):
        dataclasses.replace(mail, addresses=())


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


def test_parsed_mails_share_address_tuples():
    mails = parse_trace("0\t1\taddress1\n1\t2\taddress2,address1\n"
                        "2\t3\taddress1\n3\t4\taddress2,address1\n")
    assert mails[0].addresses == ("address1",)
    assert mails[0].addresses is mails[2].addresses
    assert mails[1].addresses is mails[3].addresses
    assert mails[0].addresses is not mails[1].addresses


# Addresses may hold anything but the field and line separators.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_addresses = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="," + "\t" + _LINE_BREAKS),
    min_size=1, max_size=8)
# Ids fit the PRF's 8-byte encoding; ticks are unbounded.
_mails = st.builds(
    Mail, st.builds(Document, st.integers(min_value=0, max_value=2 ** 64 - 1)),
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
    assert all(0 <= m.doc.id < 2 ** 64 and m.addresses and all(m.addresses)
               for m in mails)
