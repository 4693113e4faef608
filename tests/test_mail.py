import pytest

from stegomail import (Document, Mail, Mailbox, ProtocolError, RngState,
                       deliver, extract_addresses, extract_document,
                       merge_by_date, read_trace, write_trace)
from stegomail.mail import format_trace, parse_trace


def mk(tick, doc_id=0, addrs=("address1",)):
    return Mail(Document(doc_id), tuple(addrs), tick)


def test_extract_document_projection():
    assert extract_document(mk(3, doc_id=7)) == Document(7)
    assert extract_document(mk(0, doc_id=0, addrs=("address2", "address1"))) == Document(0)


def test_extract_addresses_preserves_order():
    assert extract_addresses(mk(1, addrs=("address2",))) == ("address2",)
    both = extract_addresses(mk(1, addrs=("address1", "address2")))
    assert both == ("address1", "address2")
    assert both != ("address2", "address1")


def test_mail_requires_recipient():
    with pytest.raises(ProtocolError):
        Mail(Document(0), (), 0)
    with pytest.raises(ProtocolError):
        Mail(Document(0), ("",), 0)


def test_mail_round_trip_construct_extract():
    rng = RngState(41)
    for t in range(1_000):
        doc = Document(rng.randrange(1_000))
        mail = Mail(doc, ("address1",), t)
        assert extract_document(mail) == doc
        assert extract_addresses(mail) == ("address1",)


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
            (left if rng.bit() else right).append(mk(t))
        merged = merge_by_date(left, right)
        assert merged == sorted(left + right, key=lambda m: m.sent_at)


def test_merge_rejects_duplicate_ticks():
    with pytest.raises(ProtocolError):
        merge_by_date([mk(1)], [mk(1)])


def test_merge_rejects_unsorted_input():
    with pytest.raises(ProtocolError):
        merge_by_date([mk(2), mk(1)], [])


def test_mailbox_enforces_order():
    box = Mailbox("address1")
    box.deliver(mk(1))
    box.deliver(mk(2))
    with pytest.raises(ProtocolError):
        box.deliver(mk(2))
    assert len(box) == 2


def test_deliver_routes_broadcasts_to_both_boxes():
    mails = [mk(0, addrs=("address1", "address2")),
             mk(1, addrs=("address2", "address1"))]
    boxes = deliver(mails)
    assert [m.sent_at for m in boxes["address1"]] == [0, 1]
    assert [m.sent_at for m in boxes["address2"]] == [0, 1]


def test_trace_round_trip_bit_exact(tmp_path):
    mails = [mk(0, 7, ("address1",)), mk(1, 3, ("address2", "address1")),
             mk(5, 0, ("address2",))]
    text = format_trace(mails)
    assert parse_trace(text) == mails
    path = tmp_path / "trace.tsv"
    write_trace(mails, path)
    assert read_trace(path) == mails
    write_trace(read_trace(path), tmp_path / "again.tsv")
    assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()


def test_trace_rejects_malformed_lines():
    with pytest.raises(ProtocolError):
        parse_trace("1\t2\n")
    with pytest.raises(ProtocolError):
        parse_trace("one\t2\taddress1\n")


def test_parse_trace_rejects_negative_document_id():
    with pytest.raises(ProtocolError, match="trace line 2: negative document id"):
        parse_trace("0\t1\taddress1\n1\t-4\taddress2\n")
