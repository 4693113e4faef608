import gc
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from math import log2
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stegomail
from stegomail import (BitFunction, ChannelSpec, ConfigError, Counter, CounterError,
                       Key, Mail, ProtocolError, RngState, SystemConfig,
                       bits_from_bytes, bits_from_hex, embed_message, hex_from_bits,
                       load_channel_file, p1_embed, p1_extract, p2_embed, p2_extract,
                       read_trace, write_trace)
from stegomail import mail as mail_module
from stegomail.cli import main, run
from stegomail.mail import _TRACE_CHUNK, _columns, format_trace, parse_trace

from conftest import count_calls, p1_route

KEY = "00112233445566778899aabbccddeeff"
REPO = Path(__file__).resolve().parent.parent

UNIFORM_4 = {"kind": "stationary", "alphabet_size": 4,
             "probs": ["0.25", "0.25", "0.25", "0.25"]}
UNIFORM_1024 = {"kind": "stationary", "alphabet_size": 1024,
                "probs": [repr(1 / 1024)] * 1024}
MIXED_3 = {"kind": "stationary", "alphabet_size": 3,
           "probs": ["0.5", "0.25", "0.25"]}
MARKOV_2 = {"kind": "markov1", "alphabet_size": 2,
            "matrix": [["0.9", "0.1"], ["0.5", "0.5"]],
            "initial": ["0.5", "0.5"]}
BAD_SUM = {"kind": "stationary", "alphabet_size": 2, "probs": ["0.5", "0.4"]}


@pytest.fixture
def channel(tmp_path):
    def write(spec: dict, name: str = "channel.json") -> str:
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return str(path)
    return write


@pytest.fixture
def message_file(tmp_path):
    path = tmp_path / "message.hex"
    path.write_text("deadbeef0badf00d")
    return str(path)


def out_lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_embed_extract_round_trip_p1(tmp_path, channel, message_file, capsys):
    spec = channel(UNIFORM_4)
    trace = str(tmp_path / "trace.tsv")
    assert run(["embed", "--protocol", "p1", "--key", KEY, "--message",
                message_file, "--channel", spec, "--seed", "7",
                "--out", trace]) == 0
    capsys.readouterr()
    assert run(["extract", "--protocol", "p1", "--key", KEY,
                "--in", trace]) == 0
    assert out_lines(capsys)[-1] == "deadbeef0badf00d"


def test_extract_p1_from_two_mailbox_traces(tmp_path, channel, message_file, capsys):
    spec = channel(UNIFORM_4)
    trace = str(tmp_path / "trace.tsv")
    run(["embed", "--protocol", "p1", "--key", KEY, "--message", message_file,
         "--channel", spec, "--seed", "11", "--out", trace])
    to1, to2 = p1_route(read_trace(trace))
    box1 = str(tmp_path / "box1.tsv")
    box2 = str(tmp_path / "box2.tsv")
    write_trace(_columns(to1), box1)
    write_trace(_columns(to2), box2)
    capsys.readouterr()
    assert run(["extract", "--protocol", "p1", "--key", KEY,
                "--in", box1, "--in2", box2]) == 0
    assert out_lines(capsys)[-1] == "deadbeef0badf00d"


@pytest.mark.parametrize("piece", [1 << 16, 7])
def test_a_crlf_trace_extracts_as_its_newline_form(piece, tmp_path, channel, message_file,
                                                    capsys, monkeypatch):
    # Internet mail ends its lines in CRLF: a copy of each trace with "\r\n"
    # line ends extracts the same hex, through --in and through --in2, with
    # reads that end anywhere in a "\r\n".
    trace, box1, box2 = (tmp_path / name for name in ("trace.tsv", "box1.tsv", "box2.tsv"))
    assert run(["embed", "--protocol", "p1", "--key", KEY, "--message", message_file,
                "--channel", channel(UNIFORM_4), "--seed", "11", "--out", str(trace)]) == 0
    to1, to2 = p1_route(read_trace(trace))
    write_trace(_columns(to1), box1)
    write_trace(_columns(to2), box2)
    for path in (trace, box1, box2):
        crlf = path.read_bytes().replace(b"\n", b"\r\n")
        path.with_suffix(".crlf").write_bytes(crlf)
    capsys.readouterr()
    monkeypatch.setattr(mail_module, "_READ_PIECE", piece)
    for paths in ([trace], [box1, box2]):
        for suffix in (".tsv", ".crlf"):
            inputs = [arg for flag, path in zip(["--in", "--in2"], paths)
                      for arg in (flag, str(path.with_suffix(suffix)))]
            assert run(["extract", "--protocol", "p1", "--key", KEY, *inputs]) == 0
            assert capsys.readouterr() == ("deadbeef0badf00d\n", "")


@pytest.mark.parametrize("protocol", ["p1", "p2"])
def test_extract_of_a_trace_with_lines_removed_exits_3(protocol, tmp_path, channel,
                                                       message_file, capsys):
    trace = tmp_path / "trace.tsv"
    run(["embed", "--protocol", protocol, "--key", KEY, "--message", message_file,
         "--channel", channel(UNIFORM_4), "--seed", "11", "--out", str(trace)])
    lines = trace.read_text().splitlines(keepends=True)
    trace.write_text("".join(lines[:3] + lines[5:]))
    capsys.readouterr()
    assert run(["extract", "--protocol", protocol, "--key", KEY,
                "--in", str(trace)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"send tick 3 is missing from the {protocol} input" in captured.err


@pytest.mark.parametrize("box", [0, 1])
def test_extract_p1_with_a_mail_lost_from_one_mailbox_exits_3(box, tmp_path, channel,
                                                              message_file, capsys):
    trace = str(tmp_path / "trace.tsv")
    run(["embed", "--protocol", "p1", "--key", KEY, "--message", message_file,
         "--channel", channel(UNIFORM_4), "--seed", "11", "--out", trace])
    boxes = list(p1_route(read_trace(trace)))
    lost = boxes[box].pop(1)  # neither the first nor the last mail sent
    paths = [str(tmp_path / "box1.tsv"), str(tmp_path / "box2.tsv")]
    for mails, path in zip(boxes, paths):
        write_trace(_columns(mails), path)
    capsys.readouterr()
    assert run(["extract", "--protocol", "p1", "--key", KEY,
                "--in", paths[0], "--in2", paths[1]]) == 3
    assert (f"send tick {lost.sent_at} is missing from the p1 input"
            in capsys.readouterr().err)


def test_embed_extract_round_trip_p2(tmp_path, channel, message_file, capsys):
    spec = channel(MARKOV_2)
    trace = str(tmp_path / "trace.tsv")
    run(["embed", "--protocol", "p2", "--key", KEY, "--message", message_file,
         "--channel", spec, "--seed", "13", "--out", trace])
    capsys.readouterr()
    assert run(["extract", "--protocol", "p2", "--key", KEY,
                "--in", trace]) == 0
    assert out_lines(capsys)[-1] == "deadbeef0badf00d"


@pytest.mark.parametrize("protocol", ["p1", "p2"])
def test_single_trace_extract_builds_no_mail(protocol, tmp_path, channel, message_file,
                                             capsys, monkeypatch):
    trace = str(tmp_path / "trace.tsv")
    assert run(["embed", "--protocol", protocol, "--key", KEY, "--message", message_file,
                "--channel", channel(UNIFORM_4), "--seed", "5", "--out", trace]) == 0
    capsys.readouterr()
    unchecked = count_calls(monkeypatch, "stegomail.mail", "_mails")
    checked = [0]
    init = Mail.__init__

    def counted_init(self, *args, **kwargs):
        checked[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Mail, "__init__", counted_init)
    assert run(["extract", "--protocol", protocol, "--key", KEY, "--in", trace]) == 0
    assert out_lines(capsys) == ["deadbeef0badf00d"]
    assert unchecked == checked == [0]


@pytest.mark.parametrize("protocol", ["p1", "p2"])
def test_embed_builds_no_mail(protocol, tmp_path, channel, message_file, capsys,
                              monkeypatch):
    # The send side writes the embedder's columns as they are.
    built = count_calls(monkeypatch, "stegomail.mail", "_mails")
    checked = [0]
    init = Mail.__init__

    def counted_init(self, *args, **kwargs):
        checked[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Mail, "__init__", counted_init)
    trace = tmp_path / "trace.tsv"
    assert run(["embed", "--protocol", protocol, "--key", KEY, "--message", message_file,
                "--channel", channel(UNIFORM_4), "--seed", "5", "--out", str(trace)]) == 0
    assert out_lines(capsys)[0].startswith("embedded 64 bits into 64 mails")
    assert len(trace.read_text().splitlines()) == 64
    assert built == checked == [0]


@pytest.mark.parametrize("protocol", ["p1", "p2"])
@pytest.mark.parametrize("spec", [UNIFORM_4, MARKOV_2], ids=["uniform4", "markov2"])
def test_embed_trace_is_the_library_embed_written(protocol, spec, tmp_path, channel,
                                                  message_file, capsys):
    trace = tmp_path / "trace.tsv"
    assert run(["embed", "--protocol", protocol, "--key", KEY, "--message", message_file,
                "--channel", channel(spec), "--seed", "9", "--counter", "5",
                "--start-tick", "7", "--out", str(trace)]) == 0
    assert out_lines(capsys) == [
        f"embedded 64 bits into 64 mails (64 channel draws) -> {trace}",
        "next counter: 69"]
    embed = {"p1": p1_embed, "p2": p2_embed}[protocol]
    counter = Counter(5)
    mails = embed(KEYED, counter, bits_from_hex("deadbeef0badf00d"),
                  load_channel_file(channel(spec)), RngState(9), 7)
    assert counter.value == 69
    expected = tmp_path / "expected.tsv"
    write_trace(_columns(mails), expected)
    assert trace.read_bytes() == expected.read_bytes()
    assert mails[0].sent_at == 7 and mails[-1].sent_at == 70


def test_extract_p2_rejects_second_trace(tmp_path, channel, message_file, capsys):
    spec = channel(UNIFORM_4)
    trace = str(tmp_path / "trace.tsv")
    run(["embed", "--protocol", "p2", "--key", KEY, "--message", message_file,
         "--channel", spec, "--seed", "13", "--out", trace])
    assert run(["extract", "--protocol", "p2", "--key", KEY,
                "--in", trace, "--in2", trace]) == 2
    # The option pair is refused before either trace is read.
    bad = tmp_path / "bad.tsv"
    bad.write_text("not a trace\n")
    capsys.readouterr()
    assert run(["extract", "--protocol", "p2", "--key", KEY,
                "--in", str(bad), "--in2", trace]) == 2
    assert "reads a single mailbox trace" in capsys.readouterr().err


def test_embed_raw_message_format(tmp_path, channel, capsys):
    spec = channel(UNIFORM_4)
    raw = tmp_path / "message.bin"
    raw.write_bytes(b"\xa5\x5a")
    trace = str(tmp_path / "trace.tsv")
    run(["embed", "--protocol", "p1", "--key", KEY, "--message", str(raw),
         "--message-format", "raw", "--channel", spec, "--seed", "3",
         "--out", trace])
    capsys.readouterr()
    run(["extract", "--protocol", "p1", "--key", KEY, "--in", trace])
    assert out_lines(capsys)[-1] == "a55a"


def test_simulate_p1_zero_failures(tmp_path, channel, capsys):
    spec = channel(UNIFORM_1024)
    out = str(tmp_path / "trials.csv")
    assert run(["simulate", "--system", "p1", "--channel", spec, "--key", KEY,
                "--bits", "64", "--trials", "50", "--seed", "17",
                "--out", out]) == 0
    lines = out_lines(capsys)
    assert lines[0].startswith("# config:")
    aggregate = lines[-1].split(",")
    assert aggregate[0] == "50"
    assert float(aggregate[2]) == 0.0  # failure_rate
    assert float(aggregate[3]) == 0.0  # bit_error_rate
    csv_lines = open(out).read().splitlines()
    assert csv_lines[0].startswith("# config:")
    assert len(csv_lines) == 2 + 50


def test_simulate_reproducible_modulo_wall_time(tmp_path, channel, capsys):
    spec = channel(UNIFORM_4)
    outs = []
    for name in ("a.csv", "b.csv"):
        path = str(tmp_path / name)
        run(["simulate", "--system", "s2", "--channel", spec, "--random-fn",
             "--bits", "16", "--trials", "20", "--ecc-repetition", "1",
             "--seed", "23", "--out", path])
        rows = [line.rsplit(",", 1)[0] for line in open(path).read().splitlines()]
        outs.append(rows)
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_simulate_requires_key_or_random_fn(channel):
    spec = channel(UNIFORM_4)
    assert run(["simulate", "--system", "s1", "--channel", spec,
                "--bits", "8", "--trials", "5", "--seed", "1"]) == 2


def test_simulate_key_and_random_fn_are_exclusive(channel, capsys):
    spec = channel(UNIFORM_4)
    assert run(["simulate", "--system", "s1", "--channel", spec, "--key", KEY,
                "--random-fn", "--bits", "8", "--trials", "5", "--seed", "1"]) == 2
    assert "--random-fn" in capsys.readouterr().err


@pytest.mark.parametrize("size_flags", [["--bits", "0", "--trials", "5"],
                                        ["--bits", "8", "--trials", "0"]])
def test_simulate_empty_run_is_config_error(channel, capsys, size_flags):
    spec = channel(UNIFORM_4)
    assert run(["simulate", "--system", "s1", "--channel", spec, "--key", KEY,
                *size_flags, "--seed", "1"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_attack_outputs_csv_row(channel, capsys):
    spec = channel(UNIFORM_4)
    assert run(["attack", "--system", "p1", "--distinguisher",
                "document-frequency", "--channel", spec, "--trials", "100",
                "--bits-per-game", "60", "--seed", "29"]) == 0
    lines = out_lines(capsys)
    assert lines[1] == "system,distinguisher,trials,advantage,halfwidth,p_st,p_ct"
    fields = lines[2].split(",")
    assert fields[0] == "p1" and fields[2] == "100"
    assert 0.0 <= float(fields[3]) <= 1.0


def test_attack_address_warden_needs_addresses(channel):
    spec = channel(UNIFORM_4)
    assert run(["attack", "--system", "s1", "--distinguisher",
                "address-frequency", "--channel", spec, "--trials", "100",
                "--seed", "31"]) == 2


@pytest.mark.parametrize("bits_per_game", ["0", "-3"])
def test_attack_without_hiddentext_bits_is_config_error(channel, capsys, bits_per_game):
    spec = channel(UNIFORM_4)
    assert run(["attack", "--system", "s1", "--distinguisher",
                "document-frequency", "--channel", spec, "--trials", "100",
                "--bits-per-game", bits_per_game, "--seed", "31"]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("significance", ["2", "-1", "0", "1", "nan"])
def test_attack_significance_outside_unit_interval_is_config_error(channel, capsys,
                                                                   significance):
    spec = channel(UNIFORM_4)
    assert run(["attack", "--system", "s1", "--distinguisher",
                "document-frequency", "--channel", spec, "--trials", "100",
                "--bits-per-game", "20", "--significance", significance,
                "--seed", "1"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_rate_table(channel, capsys):
    spec = channel(UNIFORM_4)
    assert run(["rate", "--system", "all", "--channel", spec, "--bits", "60",
                "--copies", "5", "--seed", "37"]) == 0
    lines = out_lines(capsys)
    table = {row.split(",")[0]: row.split(",") for row in lines[2:]}
    assert float(table["p1"][3]) == 1.0
    assert float(table["p2"][3]) == 1.0
    assert float(table["s2"][3]) == 0.2
    assert float(table["s3"][3]) == 0.2
    assert float(table["s4"][3]) == 0.2
    assert float(table["s1"][3]) == 1.0


@pytest.mark.parametrize("flags", [["--system", "p1", "--bits", "0"],
                                   ["--system", "p1,zz"],
                                   ["--system", "p1", "--bits", str(2 ** 20 + 1)]],
                         ids=["no-bits", "unknown-system", "past-the-cap"])
def test_refused_rate_prints_no_partial_table(flags, channel, capsys):
    assert run(["rate", *flags, "--channel", channel(UNIFORM_4), "--seed", "37"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error" in captured.err


def test_capacity_command(capsys):
    assert run(["capacity", "--p", "0.25"]) == 0
    value = float(out_lines(capsys)[-1])
    assert abs(value - 0.18872) <= 1e-5
    assert run(["capacity", "--p", "1.5"]) == 2


def test_channel_info(channel, capsys):
    assert run(["channel-info", "--channel", channel(UNIFORM_1024)]) == 0
    text = capsys.readouterr().out
    assert "min_entropy_bits: 10.0" in text
    assert run(["channel-info", "--channel", channel(MIXED_3, "m3.json")]) == 0
    text = capsys.readouterr().out
    assert "min_entropy_bits: 1.0" in text
    assert run(["channel-info", "--channel", channel(MARKOV_2, "mk.json")]) == 0
    text = capsys.readouterr().out
    assert "min_entropy_bits_worst_row:" in text


# channel-info's output for every file in channels/, as it was printed
# before the point-mass fix, but for that one line, which read -0.0.
CHANNEL_INFO = {
    "binary": ["kind: stationary", "alphabet_size: 2", "min_entropy_bits: 1.0",
               "doc 0: 0.5", "doc 1: 0.5"],
    "markov2": ["kind: markov1", "alphabet_size: 2", "min_entropy_bits: 1.0",
                "min_entropy_bits_worst_row: 0.15200309344504995",
                "doc 0: 0.5", "doc 1: 0.5"],
    "point_mass4": ["kind: stationary", "alphabet_size: 4", "min_entropy_bits: 0.0",
                    "doc 0: 1.0", "doc 1: 0.0", "doc 2: 0.0", "doc 3: 0.0"],
    "uniform1024": ["kind: stationary", "alphabet_size: 1024", "min_entropy_bits: 10.0",
                    *(f"doc {i}: 0.0009765625" for i in range(5))],
    "uniform4": ["kind: stationary", "alphabet_size: 4", "min_entropy_bits: 2.0",
                 *(f"doc {i}: 0.25" for i in range(4))],
}


def test_channel_info_of_every_shipped_channel_is_pinned(capsys):
    assert sorted(p.stem for p in (REPO / "channels").glob("*.json")) == sorted(CHANNEL_INFO)
    for name, expected in CHANNEL_INFO.items():
        assert run(["channel-info", "--channel", str(REPO / "channels" / f"{name}.json")]) == 0
        assert out_lines(capsys) == expected, name


def test_channel_info_reads_the_first_draw_of_a_markov1_channel(channel, capsys):
    # The top documents are the initial vector's, and a deterministic row
    # gives a worst-row min-entropy of 0.0, not -0.0.
    spec = {"kind": "markov1", "alphabet_size": 3,
            "matrix": [[0, 1, 0], [0.5, 0.25, 0.25], [0.5, 0.5, 0]],
            "initial": [0.25, 0.125, 0.625]}
    assert run(["channel-info", "--channel", channel(spec)]) == 0
    assert out_lines(capsys) == [
        "kind: markov1", "alphabet_size: 3", f"min_entropy_bits: {-log2(0.625)!r}",
        "min_entropy_bits_worst_row: 0.0", "doc 2: 0.625", "doc 0: 0.25", "doc 1: 0.125"]


@pytest.mark.parametrize("option", ["--channel", "--count", "--copies", "--ecc-repetition",
                                    "--key", "--protocol", "--counter", "--seed",
                                    "--random-fn"])
def test_a_shared_option_reads_the_same_on_every_command(option):
    # One declaration per option, so its help, default and type cannot drift
    # between commands.  simulate's --key is optional and says so; embed and
    # extract share theirs.
    commands = ["embed", "extract"] if option == "--key" else list(main.commands)
    params = [p for name in commands for p in main.commands[name].params
              if p.opts[0] == option]
    expected = {"--channel": 6, "--key": 2, "--protocol": 2, "--counter": 2, "--seed": 5,
                "--random-fn": 2}.get(option, 4)
    assert len(params) == expected
    assert all(p.help for p in params)
    described = [(p.to_info_dict(), p.show_default) for p in params]
    assert all(d == described[0] for d in described)


def test_bench_smoke(tmp_path, channel, capsys):
    spec = channel(UNIFORM_4)
    out = str(tmp_path / "bench.csv")
    assert run(["bench", "--systems", "p1", "--lengths", "128,256,512",
                "--channel", spec, "--repeats", "1", "--seed", "41",
                "--out", out]) == 0
    text = open(out).read()
    assert "embed_slope=" in text
    assert text.count("\np1,") == 3


@pytest.mark.parametrize("systems, lengths, repeats", [
    ("p1", "128,256", "0"), ("p1", "128", "1"), ("p1", "128,128", "1"),
    ("p1", "128,,256", "1"), ("s1", "0,4", "1"), ("s1", "-4,4", "1")])
def test_bench_unfittable_sizes_are_config_errors(channel, capsys, systems, lengths,
                                                   repeats):
    spec = channel(UNIFORM_4)
    assert run(["bench", "--systems", systems, "--lengths", lengths,
                "--channel", spec, "--repeats", repeats, "--seed", "41"]) == 2
    assert "configuration error" in capsys.readouterr().err


def _config_line(argv, capsys):
    capsys.readouterr()
    assert run(argv) == 0
    return out_lines(capsys)[0]


@pytest.mark.parametrize("command, base, changes", [
    ("simulate", {"--system": "s1", "--key": KEY, "--bits": "8", "--trials": "2",
                  "--seed": "1"},
     [{"--system": "s2"}, {"--bits": "9"}, {"--trials": "3"}, {"--count": "2"},
      {"--copies": "5"}, {"--ecc-repetition": "3"}, {"--key": None, "--random-fn": True},
      {"--seed": "2"}]),
    ("attack", {"--system": "s1", "--distinguisher": "document-frequency",
                "--trials": "100", "--bits-per-game": "10", "--seed": "1"},
     [{"--system": "s2"}, {"--distinguisher": "constant"}, {"--trials": "101"},
      {"--bits-per-game": "11"}, {"--significance": "0.1"}, {"--count": "2"},
      {"--copies": "5"}, {"--ecc-repetition": "3"}, {"--random-fn": True},
      {"--seed": "2"}]),
    ("rate", {"--system": "s1", "--bits": "8", "--seed": "1"},
     [{"--system": "s2"}, {"--bits": "9"}, {"--count": "2"}, {"--copies": "5"},
      {"--ecc-repetition": "3"}, {"--seed": "2"}]),
    ("bench", {"--systems": "p1", "--lengths": "16,32", "--repeats": "1", "--seed": "5"},
     [{"--systems": "p2"}, {"--lengths": "16,48"}, {"--count": "2"}, {"--copies": "5"},
      {"--ecc-repetition": "3"}, {"--repeats": "2"}, {"--seed": "6"}]),
], ids=["simulate", "attack", "rate", "bench"])
def test_config_header_records_every_system_option(command, base, changes, channel, capsys):
    # Every option but the key and the output path shows in the header, and
    # the key never does.  A value of None leaves the option out; True is a flag.
    changes = [*changes, {"--channel": channel(MIXED_3, "m3.json")}]
    options = {p.opts[0] for p in main.commands[command].params}
    assert options - {"--key", "--out"} == set().union(*changes) - {"--key"}
    base = {**base, "--channel": channel(UNIFORM_4)}

    def header(args):
        argv = [command]
        for option, value in args.items():
            argv += [] if value is None else [option] if value is True else [option, value]
        line = _config_line(argv, capsys)
        assert line.startswith("# config: ") and KEY not in line
        return line

    first = header(base)
    for change in changes:
        assert header({**base, **change}) != first, change


@pytest.mark.parametrize("argv, expected", [
    (["rate", "--system", "p1, p2", "--bits", "8", "--seed", "1"], "systems=p1,p2"),
    (["bench", "--systems", "p1, p2", "--lengths", "8, 16", "--repeats", "1",
      "--seed", "5"], "lengths=8,16"),
], ids=["rate", "bench"])
def test_config_header_items_are_key_value_tokens(argv, expected, channel, capsys):
    # A list given with spaces is written as the names and lengths the rows
    # use, so the line splits on spaces into key=value items.
    line = _config_line([*argv, "--channel", channel(UNIFORM_4)], capsys)
    items = line.removeprefix("# config: ").split(" ")
    assert [item for item in items if not re.fullmatch(r"\w+=\S+", item)] == []
    assert expected in items and "systems=p1,p2" in items


@pytest.mark.parametrize("argv", [
    ["simulate", "--system", "s1", "--key", KEY, "--bits", "8", "--trials", "2",
     "--seed", "1"],
    ["attack", "--system", "s1", "--distinguisher", "constant", "--trials", "100",
     "--bits-per-game", "10", "--seed", "1"],
    ["rate", "--system", "s1", "--bits", "8", "--seed", "1"],
    ["bench", "--systems", "p1", "--lengths", "16,32", "--repeats", "1", "--seed", "5"],
], ids=["simulate", "attack", "rate", "bench"])
def test_config_header_quotes_a_channel_path_with_a_space(argv, channel, capsys):
    # The header reads back with shlex.split as one key=value token per item,
    # the channel path among them.
    path = channel(UNIFORM_4, "my channel.json")
    line = _config_line([*argv, "--channel", path], capsys)
    items = shlex.split(line.removeprefix("# config: "))
    assert [item for item in items if not re.fullmatch(r"\w+=.+", item, re.S)] == []
    config = dict(item.split("=", 1) for item in items)
    assert config["channel"] == path and config["command"] == argv[0]
    assert config["seed"] == argv[argv.index("--seed") + 1]


def test_bad_channel_file_is_config_error(channel):
    spec = channel(BAD_SUM, "bad.json")
    assert run(["channel-info", "--channel", spec]) == 2


def test_corrupt_trace_is_protocol_error(tmp_path, channel):
    spec = channel(UNIFORM_4)
    trace = tmp_path / "trace.tsv"
    trace.write_text("0\t1\taddress1\n0\t2\taddress1\n")
    assert run(["extract", "--protocol", "p1", "--key", KEY,
                "--in", str(trace)]) == 3


def test_p1_trace_out_of_send_order_is_protocol_error(tmp_path, channel, message_file,
                                                     capsys):
    # Each address's mails stay in order, but the single trace is the sent
    # sequence and is read as such, not re-sorted.
    trace = tmp_path / "trace.tsv"
    assert run(["embed", "--protocol", "p1", "--key", KEY, "--message", message_file,
                "--channel", channel(UNIFORM_4), "--seed", "7", "--out", str(trace)]) == 0
    lines = trace.read_text().splitlines(keepends=True)
    i = next(i for i in range(len(lines) - 1)
             if lines[i].split("\t")[2] != lines[i + 1].split("\t")[2])
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    trace.write_text("".join(lines))
    capsys.readouterr()
    assert run(["extract", "--protocol", "p1", "--key", KEY, "--in", str(trace)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not sorted by send date" in captured.err


@pytest.mark.parametrize("protocol", ["p1", "p2"])
def test_bad_counter_fails_before_send_order(protocol, tmp_path, capsys):
    # Both protocols build the counter before they read the mails' order,
    # in the library (whose extractors take a built Counter) and in the CLI
    # alike.
    mails = embed_message(SystemConfig(protocol), KEYED, [0, 1, 1],
                          ChannelSpec.uniform(4), RngState(3))
    mails[0], mails[1] = mails[1], mails[0]
    with pytest.raises(ConfigError, match="^counter value -1 outside 64-bit range$"):
        _library_mail_extract(protocol, mails, -1)
    trace = tmp_path / "trace.tsv"
    write_trace(_columns(mails), trace)
    capsys.readouterr()
    assert run(["extract", "--protocol", protocol, "--key", KEY, "--in", str(trace),
                "--counter", "-1"]) == 2
    assert "counter value -1 outside 64-bit range" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["embed", "--protocol", "p1", "--key", KEY],
    ["simulate", "--system", "p1", "--key", KEY, "--bits", "8", "--trials", "2"],
    ["bench", "--systems", "p1", "--lengths", "8,16", "--repeats", "1"],
], ids=["embed", "simulate", "bench"])
def test_output_in_a_missing_directory_is_config_error(command, tmp_path, channel,
                                                       message_file, capsys):
    out = str(tmp_path / "missing" / "out")
    args = command + ["--channel", channel(UNIFORM_4), "--seed", "5", "--out", out]
    if command[0] == "embed":
        args += ["--message", message_file]
    assert run(args) == 2
    err = capsys.readouterr().err
    # The error names the output path, not the new file embed writes beside it.
    assert err.startswith("configuration error: ") and "No such file" in err
    assert err.endswith(f": {out!r}\n")


def test_counter_overflow_exit_code(tmp_path, channel, message_file):
    spec = channel(UNIFORM_4)
    trace = str(tmp_path / "trace.tsv")
    assert run(["embed", "--protocol", "p1", "--key", KEY, "--message",
                message_file, "--channel", spec, "--seed", "43",
                "--counter", str(2 ** 64 - 1), "--out", trace]) == 4


@pytest.mark.parametrize("protocol", ["p1", "p2"])
def test_embed_prints_next_counter_for_chained_messages(protocol, tmp_path, channel,
                                                         message_file, capsys):
    # (key, counter) must not repeat across messages: the second message
    # starts where the first one's counter ended, and both extract.
    spec = channel(UNIFORM_4)
    counter = 5
    for n, seed in enumerate(["7", "8"]):
        trace = str(tmp_path / f"trace{n}.tsv")
        assert run(["embed", "--protocol", protocol, "--key", KEY, "--message",
                    message_file, "--channel", spec, "--seed", seed,
                    "--counter", str(counter), "--out", trace]) == 0
        embedded, next_counter = out_lines(capsys)
        assert embedded.startswith("embedded 64 bits into 64 mails (64 channel draws)")
        assert next_counter == f"next counter: {counter + 64}"
        assert run(["extract", "--protocol", protocol, "--key", KEY,
                    "--counter", str(counter), "--in", trace]) == 0
        assert out_lines(capsys) == ["deadbeef0badf00d"]
        counter = int(next_counter.split(": ")[1])


# Message files of at most 64 bytes, the empty file included: hex text
# (with whitespace and mixed case), bytes that are mostly not hex, and raw.
MESSAGE_FILES = st.one_of(
    st.binary(min_size=1, max_size=32).map(lambda b: (b.hex().encode(), "hex")),
    st.text(alphabet="0123456789abcdefABCDEF \n\t", max_size=64).map(
        lambda t: (t.encode(), "hex")),
    st.binary(max_size=64).map(lambda b: (b, "hex")),
    st.binary(max_size=64).map(lambda b: (b, "raw")))
# Keys of a valid length, any length up to 72 bytes, and arbitrary text.
KEYS = st.one_of(st.binary(min_size=8, max_size=64).map(bytes.hex),
                 st.binary(max_size=72).map(bytes.hex), st.text(max_size=40))
# Counters near both edges of the 64-bit range, where headroom runs out,
# and anywhere in and around it.
COUNTERS = st.one_of(st.integers(-3, 600), st.integers(0, 2 ** 64),
                     st.integers(2 ** 64 - 600, 2 ** 64 + 2),
                     st.integers(-2 ** 70, 2 ** 70))
BIG_INTS = st.integers(-2 ** 70, 2 ** 70)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(protocol=st.sampled_from(["p1", "p2"]),
       channel_spec=st.sampled_from([UNIFORM_4, MIXED_3, MARKOV_2]),
       key=KEYS, counter=COUNTERS, start_tick=BIG_INTS, seed=BIG_INTS,
       message=MESSAGE_FILES)
def test_untrusted_embed_then_extract_argv_exits_cleanly(tmp_path, capsys, protocol,
                                                         channel_spec, key, counter,
                                                         start_tick, seed, message):
    # No traceback: every outcome is exit 0 or a documented error code.  A
    # failed embed writes no trace; a successful one round-trips and names
    # the next unused counter value.
    data, message_format = message
    spec_path = tmp_path / "channel.json"
    spec_path.write_text(json.dumps(channel_spec))
    message_path = tmp_path / "message"
    message_path.write_bytes(data)
    trace = tmp_path / "trace.tsv"
    trace.unlink(missing_ok=True)
    capsys.readouterr()
    code = run(["embed", "--protocol", protocol, "--key", key, "--counter", str(counter),
                "--message", str(message_path), "--message-format", message_format,
                "--channel", str(spec_path), "--seed", str(seed),
                "--start-tick", str(start_tick), "--out", str(trace)])
    assert code in (0, 2, 3, 4)
    if code:
        assert not trace.exists()
        assert len(capsys.readouterr().err) < 1024
        return
    sent = (data if message_format == "raw"
            else bytes.fromhex("".join(data.decode("ascii").split())))
    assert out_lines(capsys)[-1] == f"next counter: {counter + 8 * len(sent)}"
    assert all(mail.doc < channel_spec["alphabet_size"] for mail in read_trace(trace))
    assert run(["extract", "--protocol", protocol, "--key", key,
                "--counter", str(counter), "--in", str(trace)]) == 0
    assert out_lines(capsys) == [sent.hex()]


# Every size stays small: a generated size only has to reach each check,
# not to stress the run.  Valid values come first and outnumber the
# invalid ones, so most runs get past the argument checks.
def _flag(name, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [name, str(v)]))


SYSTEM_NAMES = st.sampled_from(["p1", "p2", "s1", "s2", "s3", "s4", " s2"])
SYSTEM_FLAGS = st.tuples(_flag("--count", [1, 2, 16, 4096, 0, -1]),
                         _flag("--copies", [1, 3, 5, 9, 2, 0]),
                         _flag("--ecc-repetition", [1, 3, 5, 9, 2, 0])).map(
    lambda flags: [arg for flag in flags for arg in flag])
SEEDS = st.integers(-2 ** 70, 2 ** 70).map(lambda v: ["--seed", str(v)])
# Message sizes past the 2^20-bit cap, which must be refused (exit 2)
# before any message is built.
PAST_CAP = [2 ** 20 + 1, 10 ** 20]
CSV_SYSTEMS = st.lists(SYSTEM_NAMES, min_size=1, max_size=2).map(",".join)
SIMULATE = st.tuples(
    st.just(["simulate"]), SYSTEM_NAMES.map(lambda v: ["--system", v]),
    st.sampled_from([["--key", KEY], ["--random-fn"], [], ["--key", KEY, "--random-fn"],
                     ["--key", "zz"]]),
    _flag("--bits", [1, 7, 64, 0, -1, *PAST_CAP]), _flag("--trials", [1, 3, 8, 0]),
    SYSTEM_FLAGS, SEEDS)
ATTACK = st.tuples(
    st.just(["attack"]), SYSTEM_NAMES.map(lambda v: ["--system", v]),
    st.sampled_from(["document-frequency", "constant", "address-frequency"]).map(
        lambda v: ["--distinguisher", v]),
    st.sampled_from([100, 120, 110, 99]).map(lambda v: ["--trials", str(v)]),
    st.sampled_from([1, 10, 64, 0, *PAST_CAP]).map(lambda v: ["--bits-per-game", str(v)]),
    _flag("--significance", [0.05, 0.5, 0.999, 1.0, float("nan")]),
    SYSTEM_FLAGS, st.sampled_from([[], ["--random-fn"]]), SEEDS)
RATE = st.tuples(st.just(["rate"]), (st.just("all") | CSV_SYSTEMS).map(
                     lambda v: ["--system", v]),
                 _flag("--bits", [1, 7, 64, 0, -1, *PAST_CAP]), SYSTEM_FLAGS, SEEDS)
BENCH = st.tuples(
    st.just(["bench"]), CSV_SYSTEMS.map(lambda v: ["--systems", v]),
    st.one_of(st.lists(st.sampled_from(["1", "16", "64"]), min_size=2, max_size=3,
                       unique=True).map(",".join),
              st.sampled_from(["16", "16,16", "0,16", "x,16", "",
                               *(f"16,{n}" for n in PAST_CAP)])).map(
        lambda v: ["--lengths", v]),
    st.sampled_from([1, 2, 0]).map(lambda v: ["--repeats", str(v)]), SYSTEM_FLAGS, SEEDS)
# Mailbox traces: lines of valid shape with ticks, ids and address fields
# that may clash, or arbitrary text over the trace alphabet.
TRACE_LINES = st.tuples(st.integers(-2, 8), st.integers(-1, 2 ** 64),
                        st.sampled_from(["address1", "address2", "address1,address2",
                                         "address2,address1", "address3", ""]))
TRACES = st.one_of(
    st.lists(TRACE_LINES, max_size=6).map(
        lambda lines: "".join(f"{t}\t{d}\t{a}\n" for t, d, a in lines)),
    st.text(alphabet="0123456789-\t\n\r\x0b ,address", max_size=40))
EXTRACT = st.tuples(
    st.just(["extract"]), st.sampled_from(["p1", "p2"]).map(lambda v: ["--protocol", v]),
    KEYS.map(lambda v: ["--key", v]), COUNTERS.map(lambda v: ["--counter", str(v)]),
    st.sampled_from([["--in", "box1.tsv"], ["--in", "box1.tsv", "--in2", "box2.tsv"]]))


def _argv(parts):
    return [arg for part in parts for arg in part]


CLI_COMMANDS = st.one_of(
    st.one_of(SIMULATE, ATTACK, RATE, BENCH, st.just((["channel-info"],))).map(
        lambda parts: [*_argv(parts), "--channel", "channel.json"]),
    EXTRACT.map(_argv))


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=CLI_COMMANDS,
       channel_spec=st.sampled_from([UNIFORM_4, MIXED_3, MARKOV_2, BAD_SUM]),
       box1=TRACES, box2=TRACES)
def test_untrusted_command_argv_exits_cleanly(tmp_path, monkeypatch, capsys, argv,
                                              channel_spec, box1, box2):
    # No traceback from any command but embed (its own property is above):
    # every outcome is exit 0 or a documented error code.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "channel.json").write_text(json.dumps(channel_spec))
    (tmp_path / "box1.tsv").write_text(box1)
    (tmp_path / "box2.tsv").write_text(box2)
    assert run(argv) in (0, 2, 3, 4), argv
    assert len(capsys.readouterr().err) < 1024, argv


@pytest.mark.parametrize("case, code", [("hex-message", 2), ("key", 2), ("lengths", 2),
                                        ("long-line", 3), ("foreign-address", 3)])
def test_a_long_bad_input_is_quoted_short(case, code, tmp_path, channel, message_file,
                                          capsys):
    # An error message quotes at most 64 characters of the input it refuses,
    # whatever its size.  The trace cases are a 1 MiB address, refused by the
    # line limit, and a 32 KiB one, which fits in one read and is refused as
    # foreign to p1.
    spec, trace = channel(UNIFORM_4), tmp_path / "trace.tsv"
    embed = ["embed", "--protocol", "p1", "--channel", spec, "--seed", "1",
             "--out", str(trace)]
    if case == "hex-message":
        bad = tmp_path / "bad.hex"
        bad.write_text("a" * ((256 << 10) - 1) + "g")
        argv = [*embed, "--key", KEY, "--message", str(bad)]
    elif case == "key":
        argv = [*embed, "--key", "z" * (128 << 10), "--message", message_file]
    elif case == "lengths":
        argv = ["bench", "--lengths", "x" * (128 << 10), "--channel", spec, "--seed", "1"]
    else:
        address = "a" * ((1 << 20) if case == "long-line" else (32 << 10))
        trace.write_text(f"0\t1\t{address}\n")
        argv = ["extract", "--protocol", "p1", "--key", KEY, "--in", str(trace)]
    assert run(argv) == code
    err = capsys.readouterr().err
    assert len(err) < 1024, err[:1024]
    assert ("characters)" in err) == (case != "long-line"), err


def test_embed_reports_a_bad_key_before_a_bad_counter(tmp_path, channel, message_file,
                                                      capsys):
    argv = ["embed", "--protocol", "p1", "--key", "zz", "--counter", str(2 ** 64),
            "--message", message_file, "--channel", channel(UNIFORM_4), "--seed", "1",
            "--out", str(tmp_path / "trace.tsv")]
    assert run(argv) == 2
    # The key is secret: its text is never echoed, only its length.
    err = capsys.readouterr().err
    assert err == "configuration error: key is not valid hex (2 characters)\n"
    assert "zz" not in err


def _gc_case_argv(case, tmp_path, channel, message_file):
    spec = channel(UNIFORM_4)
    trace = tmp_path / "trace.tsv"
    embed = ["embed", "--protocol", "p1", "--key", KEY, "--message", message_file,
             "--channel", spec, "--seed", "3", "--out", str(trace)]
    if case == "ok":
        return embed, 0
    if case == "usage":
        return ["embed", "--no-such-flag"], 2
    if case == "bad-channel":
        return ["channel-info", "--channel", channel(BAD_SUM, "bad.json")], 2
    if case == "corrupt-trace":
        trace.write_text("0\t1\taddress1\n0\t2\taddress1\n")
        return ["extract", "--protocol", "p1", "--key", KEY, "--in", str(trace)], 3
    if case == "counter-overflow":
        return [*embed, "--counter", str(2 ** 64 - 1)], 4
    # bench pauses the collector itself, inside the command's own pause.
    return ["bench", "--systems", "p1", "--lengths", "16,32", "--channel", spec,
            "--repeats", "1", "--seed", "5"], 0


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", ["ok", "usage", "bad-channel", "corrupt-trace",
                                  "counter-overflow", "bench"])
def test_run_restores_the_collector_state(case, enabled, tmp_path, channel,
                                          message_file, capsys):
    argv, code = _gc_case_argv(case, tmp_path, channel, message_file)
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert run(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


def test_commands_run_with_the_collector_paused(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr("stegomail.cli.capacity", lambda p: seen.append(gc.isenabled()))
    assert run(["capacity", "--p", "0.25"]) == 0
    assert seen == [False]
    capsys.readouterr()


def test_usage_error_exit_code(capsys):
    assert run(["embed", "--no-such-flag"]) == 2
    capsys.readouterr()


def test_no_command_is_a_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_interrupt_exit_code(monkeypatch, capsys):
    # click turns a KeyboardInterrupt (Ctrl-C) into Abort, which run maps to 1.
    def interrupt(p):
        raise KeyboardInterrupt
    monkeypatch.setattr("stegomail.cli.capacity", interrupt)
    assert run(["capacity", "--p", "0.25"]) == 1
    capsys.readouterr()


def test_non_finite_channel_file_is_config_error(channel):
    spec = channel({"kind": "stationary", "alphabet_size": 2, "probs": ["nan", "1.0"]},
                   "nan.json")
    assert run(["channel-info", "--channel", spec]) == 2


def test_non_numeric_channel_file_is_config_error(channel, capsys):
    spec = channel({"kind": "stationary", "alphabet_size": 2, "probs": ["abc", 0.5]},
                   "abc.json")
    assert run(["channel-info", "--channel", spec]) == 2
    assert "probs" in capsys.readouterr().err


def test_negative_document_id_in_trace_is_protocol_error(tmp_path):
    trace = tmp_path / "trace.tsv"
    trace.write_text("0\t1\taddress1\n1\t-4\taddress2\n")
    assert run(["extract", "--protocol", "p1", "--key", KEY,
                "--in", str(trace)]) == 3


def test_document_id_past_8_bytes_in_trace_is_protocol_error(tmp_path, capsys):
    trace = tmp_path / "trace.tsv"
    trace.write_text(f"0\t1\taddress1\n1\t{2 ** 64}\taddress2\n")
    assert run(["extract", "--protocol", "p1", "--key", KEY,
                "--in", str(trace)]) == 3
    assert "trace line 2: document id" in capsys.readouterr().err


def test_non_utf8_trace_is_protocol_error(tmp_path, capsys):
    trace = tmp_path / "trace.tsv"
    trace.write_bytes(b"0\t1\taddress1\n1\t2\taddress\xff\n")
    assert run(["extract", "--protocol", "p1", "--key", KEY,
                "--in", str(trace)]) == 3
    assert "not UTF-8" in capsys.readouterr().err


def test_non_utf8_byte_names_its_offset_in_the_file(tmp_path, capsys, monkeypatch):
    # The trace is decoded a piece at a time; the offset is the file's.
    trace = tmp_path / "trace.tsv"
    data = b"0\t1\taddress1\n" * 50 + b"50\t2\taddress\xff\n"
    trace.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode()
    assert whole.value.start == data.index(b"\xff")
    monkeypatch.setattr(mail_module, "_READ_PIECE", 64)
    assert run(["extract", "--protocol", "p1", "--key", KEY, "--in", str(trace)]) == 3
    assert capsys.readouterr().err == (
        f"protocol error: trace file {trace} is not UTF-8 text: "
        f"invalid start byte at byte {whole.value.start}\n")


@pytest.mark.parametrize("case", ["same-piece", "later-piece", "straddling"])
def test_malformed_line_before_a_non_utf8_piece_wins(case, tmp_path, capsys, monkeypatch):
    # Each piece is decoded just before its lines are parsed, so a byte that
    # is not UTF-8 wins within its own piece, but a malformed line in an
    # earlier piece is reported first; a trace read as a p1 mailbox through
    # --in2 is read the same way.  A piece is one read and the rest of its
    # last line, so a byte on the line that a read ends in is that read's.
    trace, empty = tmp_path / "trace.tsv", tmp_path / "empty.tsv"
    if case == "straddling":
        # Line 6 runs from byte 56 across byte 64, and byte 88 on it is bad.
        trace.write_bytes(b"0\t1\n" + b"1\t1\taddress1\n" * 4 + b"5\t2\t" + b"a" * 28 + b"\xff\n")
    else:
        trace.write_bytes(b"0\t1\n" + b"1\t1\taddress1\n" * 40 + b"41\t2\taddress\xff\n")
    empty.write_text("")
    if case != "same-piece":
        monkeypatch.setattr(mail_module, "_READ_PIECE", 64)
    for inputs in (["--in", str(trace)], ["--in", str(empty), "--in2", str(trace)]):
        assert run(["extract", "--protocol", "p1", "--key", KEY, *inputs]) == 3
        err = capsys.readouterr().err
        if case == "later-piece":
            assert err == "protocol error: trace line 1: expected 3 tab-separated fields\n"
        elif case == "straddling":
            assert err == (f"protocol error: trace file {trace} is not UTF-8 text: "
                           "invalid start byte at byte 88\n")
        else:
            assert "not UTF-8" in err


def test_non_utf8_channel_file_is_config_error(tmp_path, capsys):
    spec = tmp_path / "channel.json"
    spec.write_bytes(b'{"kind": "stationary\xff"}')
    assert run(["channel-info", "--channel", str(spec)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


# SHA-256 of the trace file `embed` writes and of `extract`'s stdout, for a
# 4096-bit message over channels/uniform1024.json; recorded before the
# extractors batched their PRF calls.
GOLDEN_EMBED_EXTRACT = {
    "p1": ("f10556914bcc7e536a7c9a6ae7c57087906678b4c52ed4a959997a9b5ae4e8b6",
           "d1c83923f5817649ee61c3df2aa821a58d6432e076bd55d834ed95c0f3b453b8"),
    "p2": ("0f6b2b0e67b0e068109428705e044dd93db8cb7d6835f01e7757d21a3dc5b248",
           "d1c83923f5817649ee61c3df2aa821a58d6432e076bd55d834ed95c0f3b453b8"),
}


@pytest.mark.parametrize("protocol", sorted(GOLDEN_EMBED_EXTRACT))
def test_embed_extract_4096_bits_is_pinned(protocol, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    message = tmp_path / "message.hex"
    message.write_text(stegomail.RngState(59).bytes(512).hex())
    trace = tmp_path / "trace.tsv"
    assert run(["embed", "--protocol", protocol, "--key", KEY, "--message", str(message),
                "--channel", "channels/uniform1024.json", "--seed", "61",
                "--out", str(trace)]) == 0
    capsys.readouterr()
    assert run(["extract", "--protocol", protocol, "--key", KEY, "--in", str(trace)]) == 0
    stdout = capsys.readouterr().out
    assert stdout == message.read_text() + "\n"
    assert (hashlib.sha256(trace.read_bytes()).hexdigest(),
            hashlib.sha256(stdout.strip().encode()).hexdigest()) == \
        GOLDEN_EMBED_EXTRACT[protocol]


# SHA-256 of simulate's per-trial CSV and its stdout, wall-time column
# stripped; recorded before simulate was built on reliability_estimate.
GOLDEN_SIMULATE = {
    ("s1", "key"): "3142c5f397449ebd7b3418f6659edc0bdb3e9dda0a1df47f198f8d20edf8bdd7",
    ("s1", "random-fn"): "71f763cb731cfce34956ca72488e28ff6f1359701cb266cb32b2f1341f921e5d",
    ("s2", "key"): "5a575edeea30ad3c3433ca4c24c3fc73ce33f8d74ed49b28a3edfdff13962b6a",
    ("s2", "random-fn"): "2b0e6641ea1cb5d59b0326a1fa04f28465d674c52f5c716ce50ee050578d79c5",
    ("s4", "key"): "67762a9a69d58948ac286518b59ea67ac2421d556381be8b19d54570ac5dc6c0",
    ("s4", "random-fn"): "644c63d600bb375a4e08b6e9f4ee32a4aa80fd2864aec7b25b1d918552de312c",
    ("p1", "key"): "bbb7d12aa234d1785a23068699a9b3f6099efbc38ed6441d9be7845a9f60660c",
    ("p1", "random-fn"): "2586c5143fde0a8ef67de65f86d841741796c86863b9b651abf22f973f750154",
}


@pytest.mark.parametrize("system, fn_flag", sorted(GOLDEN_SIMULATE))
def test_simulate_csv_is_pinned(system, fn_flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    out = tmp_path / "trials.csv"
    flags = ["--key", KEY] if fn_flag == "key" else ["--random-fn"]
    assert run(["simulate", "--system", system, "--channel", "channels/markov2.json",
                *flags, "--bits", "16", "--trials", "6", "--seed", "47",
                "--out", str(out)]) == 0
    per_trial = [line.rsplit(",", 1)[0] for line in out.read_text().splitlines()]
    stdout = [line.rsplit(",", 1)[0] for line in out_lines(capsys)]
    digest = hashlib.sha256(repr((per_trial, stdout)).encode()).hexdigest()
    assert digest == GOLDEN_SIMULATE[system, fn_flag]


# A warden that each system accepts: the baselines emit bare documents, and
# s2's repetition code leaves the document-frequency test nothing to find.
ATTACK_WARDENS = {"s1": "document-frequency", "s2": "constant",
                  "s3": "document-frequency", "s4": "document-frequency",
                  "p1": "address-frequency", "p2": "address-frequency"}

# SHA-256 of attack's stdout over channels/markov2.json; recorded before the
# covertext oracle took its length from the stegotext.
GOLDEN_ATTACK = {
    ("p1", "keyed"): "43f1eb3a7752c885b07cc243c0fdbaef394a922e44d6f2925d8c897131d43594",
    ("p1", "random-fn"): "081f84947905f855b59228de73945cf6d8d165dbb972d470f9a831adcd4e08a5",
    ("p2", "keyed"): "ab6f9d121582bd14727a78d542b1b1ec43a8613ea34c0c89ad4d57d6e6565823",
    ("p2", "random-fn"): "0f7c0bb535a84e22bea4f2341a0cadc5b5e80ee53408d8c69a552979c797fdd0",
    ("s1", "keyed"): "d430b9b89f91b35ad9e214eda0c985f5ccc246767eb2fd549be188c976c30ac7",
    ("s1", "random-fn"): "00eee20752407baa3b23bd14a10db6a0481f6159931b3fb182c78c95714975ca",
    ("s2", "keyed"): "9982d0b53feccb81899f27056674cae5e691bbeda8728e0abf482054164e353c",
    ("s2", "random-fn"): "902b37145dd8763254af22b7e5f3662fd4a26c3248c128782ca05938aba39ffe",
    ("s3", "keyed"): "04f89284d58b1bd8801ea5c4076eae47b94a5014ad4eda4a3a7772466d4f47fb",
    ("s3", "random-fn"): "4894428497e41c744bffc3d14c61faf54ffcbeab18b1c153535c7bc08ec7c178",
    ("s4", "keyed"): "59afa09c503d0b107a37926a119c09b9d31802ca16610dc4e591bc7ec14458a8",
    ("s4", "random-fn"): "8562703cf8c49ac3a0806676f8a14fe0a1276f99015fa9ba50f02e2ef2ccaadc",
}


@pytest.mark.parametrize("system, fn_flag", sorted(GOLDEN_ATTACK))
def test_attack_csv_is_pinned(system, fn_flag, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    flags = ["--random-fn"] if fn_flag == "random-fn" else []
    assert run(["attack", "--system", system, "--distinguisher", ATTACK_WARDENS[system],
                "--channel", "channels/markov2.json", "--trials", "100",
                "--bits-per-game", "24", "--count", "8", *flags, "--seed", "53"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_ATTACK[system, fn_flag]


# SHA-256 of the keyed address-frequency attack's stdout over
# channels/uniform1024.json at longer games; recorded when the binomial tail
# up to 4096 trials was an exact integer sum, so they hold the saddle-point
# tail to the same decisions.
GOLDEN_LONG_ATTACK = {
    ("p1", 1000): "4e56f44dcc4d49d52a58aa0eef5d682151c2c0b2ff77a4cebed275193c5960d5",
    ("p2", 4096): "8945792de6bd9b3436adc0afa397092d83132963b14b37d0bc17860a30c9366d",
}


@pytest.mark.parametrize("system, bits", sorted(GOLDEN_LONG_ATTACK))
def test_long_address_frequency_attack_is_pinned(system, bits, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    assert run(["attack", "--system", system, "--distinguisher", "address-frequency",
                "--channel", "channels/uniform1024.json", "--trials", "100",
                "--bits-per-game", str(bits), "--seed", "5"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_LONG_ATTACK[system, bits]


# SHA-256 of `rate --system all`'s stdout; recorded before the rate was
# taken from a round trip.
GOLDEN_RATE = {
    "markov2": "9d9a49633edb6f648c7a5bad9efc5c02836b209f526e895462da28f0c8ae2c1c",
    "uniform4": "d5f1845ba283b3b5eab48b5ecadf1385266f4337df4e7108154aaf74ef4a68c6",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RATE))
def test_rate_table_is_pinned(name, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    assert run(["rate", "--system", "all", "--channel", f"channels/{name}.json",
                "--seed", "67"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_RATE[name]


def test_cli_import_loads_neither_scipy_nor_numpy():
    src = str(Path(stegomail.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import stegomail.cli; "
            "print(*sorted({name.split('.')[0] for name in sys.modules}))")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True).stdout.split()
    assert "stegomail" in loaded
    assert not {"scipy", "numpy"} & set(loaded)


@pytest.mark.parametrize("p, code, out", [("0.5", 0, "0.0\n"), ("nan", 2, "")])
def test_python_m_stegomail_runs_the_cli(p, code, out, tmp_path):
    src = str(Path(stegomail.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # The package and the cli module itself are both runnable.
    for module in ("stegomail", "stegomail.cli"):
        done = subprocess.run([sys.executable, "-m", module, "capacity", "--p", p],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert (module, done.returncode, done.stdout) == (module, code, out)
        if code:
            assert "configuration error" in done.stderr


# The alphabet of test_mail.py's test_parse_trace_raises_only_protocol_error.
TRACE_TEXT = st.text(alphabet=st.sampled_from("0123456789-+ _\t\n\r,a\u00a0\u0663"))
ADDRESS_FIELDS = st.sampled_from(["address1", "address2", "address1,address2",
                                  "address2,address1", "address3", "address1,", ""])
KEYED = BitFunction.keyed(Key.from_hex(KEY))


@st.composite
def damaged_traces(draw):
    """A valid p1 or p2 trace with one line swapped, edited, readdressed or
    dropped."""
    protocol = draw(st.sampled_from(["p1", "p2"]))
    message = bits_from_bytes(draw(st.binary(min_size=1, max_size=3)))
    mails = embed_message(SystemConfig(protocol), KEYED, message, ChannelSpec.uniform(4),
                          RngState(draw(st.integers(0, 99))))
    lines = format_trace(_columns(mails)).splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    change = draw(st.sampled_from(["none", "swap", "edit", "readdress", "drop"]))
    if change == "drop":
        del lines[i]
    elif change == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif change == "edit":
        lines[i] = draw(TRACE_TEXT)
    elif change == "readdress":
        sent, doc, _ = lines[i].split("\t")
        lines[i] = f"{sent}\t{doc}\t{draw(ADDRESS_FIELDS)}\n"
    return protocol, "".join(lines)


def _library_mail_extract(protocol: str, mails: list[Mail], counter: int) -> list[int]:
    """The library's extract of a sent p1 sequence or a p2 mailbox, from
    `counter`: a single p1 sequence is the address1 box with no address2 box."""
    if protocol == "p1":
        return p1_extract(KEYED, Counter(counter), mails, [])
    return p2_extract(KEYED, Counter(counter), mails)


def _library_extract(protocol: str, text: str, counter: int) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``extract`` as the library's mail API
    computes it, with errors mapped as cli.run maps them."""
    return _as_cli(lambda: _library_mail_extract(protocol, parse_trace(text), counter))


def _library_boxes_extract(box1: Path, box2: Path, counter: int) -> tuple[int, str, str]:
    """``extract --in box1 --in2 box2`` as the library computes it: both
    traces read before the counter is built, as the CLI reads them."""
    def extract() -> list[int]:
        mails1, mails2 = read_trace(box1), read_trace(box2)
        return p1_extract(KEYED, Counter(counter), mails1, mails2)
    return _as_cli(extract)


def _as_cli(extract) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the bits `extract` returns, with
    errors mapped as cli.run maps them."""
    try:
        return 0, hex_from_bits(extract()) + "\n", ""
    except ConfigError as e:
        return 2, "", f"configuration error: {e}\n"
    except ProtocolError as e:
        return 3, "", f"protocol error: {e}\n"
    except CounterError as e:
        return 4, "", f"counter error: {e}\n"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.tuples(st.sampled_from(["p1", "p2"]), TRACE_TEXT) | damaged_traces(),
       counter=st.none() | st.sampled_from([0, 1, -1, 2 ** 64 - 3, 2 ** 64 - 1, 2 ** 64]))
def test_cli_extract_agrees_with_the_library(tmp_path, capsys, case, counter):
    protocol, text = case
    trace = tmp_path / "trace.tsv"
    trace.write_bytes(text.encode("utf-8"))
    argv = ["extract", "--protocol", protocol, "--key", KEY, "--in", str(trace)]
    if counter is not None:
        argv += ["--counter", str(counter)]
    capsys.readouterr()
    code = run(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == _library_extract(protocol, text, counter or 0)
    if protocol == "p1":
        # The same lines as two mailboxes: those addressed to address2 alone
        # in the second, every other line in the first.
        lines = text.splitlines(keepends=True)
        to_box2 = [line.rstrip("\r\n").endswith("\taddress2") for line in lines]
        paths = tmp_path / "box1.tsv", tmp_path / "box2.tsv"
        for path, box in zip(paths, (False, True)):
            path.write_bytes("".join(line for line, to in zip(lines, to_box2) if to == box)
                             .encode("utf-8"))
        code = run(["extract", "--protocol", "p1", "--key", KEY, "--in", str(paths[0]),
                    "--in2", str(paths[1]), *argv[argv.index("--in") + 2:]])
        out, err = capsys.readouterr()
        assert (code, out, err) == _library_boxes_extract(*paths, counter or 0)


# --- receive across pieces and PRF chunks; memory per message bit --------------

def _long_trace_lines(protocol, n, seed=29):
    mails = embed_message(SystemConfig(protocol), KEYED, RngState(seed).bits(n),
                          ChannelSpec.uniform(1024), RngState(seed + 1))
    return format_trace(_columns(mails)).splitlines(keepends=True)


FOREIGN = {"p1": "address3", "p2": "address1,address3"}


@pytest.mark.parametrize("piece", [4096, None], ids=["4KiB-pieces", "default-pieces"])
@pytest.mark.parametrize("protocol", ["p1", "p2"])
def test_trace_faults_in_different_chunks_keep_the_error_order(protocol, piece, tmp_path,
                                                                capsys, monkeypatch):
    # A foreign address array in the first PRF chunk, a missing tick in the
    # second and a swap out of send order in the third, each in a different
    # piece of the file: the order of the checks decides, not the position.
    if piece is not None:
        monkeypatch.setattr(mail_module, "_READ_PIECE", piece)
    n = 2 * _TRACE_CHUNK + 48
    clean = _long_trace_lines(protocol, n)
    tick, doc, _ = clean[100].split("\t")
    foreign = clean[:100] + [f"{tick}\t{doc}\t{FOREIGN[protocol]}\n"] + clean[101:]
    gap = foreign[:5000] + foreign[5001:]
    swapped = gap[:8150] + [gap[8151], gap[8150]] + gap[8152:]
    noun = "mail sequence" if protocol == "p1" else "mailbox"
    trace = tmp_path / "trace.tsv"
    extract = ["extract", "--protocol", protocol, "--key", KEY, "--in", str(trace)]
    for lines, counter, code, message in (
            (swapped, 0, 3, f"protocol error: {noun} is not sorted by send date"),
            (gap, 0, 3, f"protocol error: send tick 5000 is missing from the {protocol} input"),
            (foreign, 0, 3, f"protocol error: mail addressed to "
                            f"{tuple(FOREIGN[protocol].split(','))!r} is outside the "
                            f"{protocol} address set"),
            (clean, 2 ** 64 - n, 4, "counter error: counter overflow at width 64 bits"),
            (swapped, -1, 2, "configuration error: counter value -1 outside 64-bit range"),
            (swapped + ["x\n"], -1, 3,
             f"protocol error: trace line {len(swapped) + 1}: expected 3 tab-separated "
             "fields")):
        trace.write_text("".join(lines))
        assert run([*extract, "--counter", str(counter)]) == code, message
        assert capsys.readouterr() == ("", message + "\n")
    trace.write_text("".join(clean))
    assert run(extract) == 0
    assert capsys.readouterr().out == hex_from_bits(RngState(29).bits(n)) + "\n"


@pytest.mark.parametrize("protocol", ["p1", "p2"])
def test_embed_and_extract_hold_few_bytes_per_message_bit(protocol, tmp_path, monkeypatch,
                                                          capsys):
    # A Document, a tick and list slots per row, and the whole trace text,
    # come to 150-168 B per message bit.
    monkeypatch.chdir(REPO)
    bits = 1 << 16
    message = tmp_path / "message.hex"
    message.write_text(stegomail.RngState(83).bytes(bits // 8).hex())
    trace = tmp_path / "trace.tsv"
    for argv in (["embed", "--protocol", protocol, "--key", KEY, "--message", str(message),
                  "--channel", "channels/uniform1024.json", "--seed", "5",
                  "--out", str(trace)],
                 ["extract", "--protocol", protocol, "--key", KEY, "--in", str(trace)]):
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * bits, (argv[0], peak / bits)
    assert capsys.readouterr().out.endswith("\n" + message.read_text() + "\n")


def test_extract_of_distinct_ids_holds_few_bytes_per_line(tmp_path, monkeypatch, capsys):
    # The parser's field memo is bounded: with every id distinct, an
    # unbounded one holds about 130 B per line.
    monkeypatch.setattr(mail_module, "_FIELD_MEMO", 1024)
    n = 1 << 16
    trace = tmp_path / "trace.tsv"
    trace.write_text("".join(f"{t}\t{t * 7919}\taddress1\n" for t in range(n)))
    tracemalloc.start()
    try:
        assert run(["extract", "--protocol", "p1", "--key", KEY, "--in", str(trace)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * n, peak / n
    assert len(capsys.readouterr().out) == n // 4 + 1


def test_extract_of_long_distinct_addresses_holds_a_bounded_memo(tmp_path, monkeypatch,
                                                                   capsys):
    # The field memo is bounded in characters: with every other line holding
    # a distinct 7 KB address, a memo bounded only in entries holds them all,
    # 3.5 MB here, though the trace is refused as foreign to p1.
    monkeypatch.setattr(mail_module, "_FIELD_MEMO", 1 << 14)
    trace = tmp_path / "trace.tsv"
    trace.write_text("".join(f"{t}\t1\t{str(t).zfill(7000) if t % 2 else 'address1'}\n"
                             for t in range(1000)))
    tracemalloc.start()
    try:
        assert run(["extract", "--protocol", "p1", "--key", KEY, "--in", str(trace)]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert "is outside the p1 address set" in capsys.readouterr().err


# SHA-256 of the trace file `embed` writes and of `extract`'s stdout (stripped)
# for a 2^20-bit message, the cap, over channels/uniform1024.json; recorded
# before the CLI held its columns compactly.
GOLDEN_CAP = ("f111e084748bff94671d343f24fde12fc1e5b98d8d34cc9d4b4716dcff50fbcc",
              "a62872a43bd18615c0bb61a18b570b79c2dae6cf4d7e2cd6fd9728a972e1c32f")

# Runs `python -m stegomail` embed, then extract, as its own children, and
# prints the peak RSS of its children in KiB after each: getrusage counts
# only this wrapper's children, not any other test's.
_CAP_WRAPPER = """
import resource, subprocess, sys
embed, extract, out_path = sys.argv[1].split("|"), sys.argv[2].split("|"), sys.argv[3]
subprocess.run([sys.executable, "-m", "stegomail", *embed], check=True,
               stdout=subprocess.DEVNULL)
after_embed = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
with open(out_path, "wb") as out:
    subprocess.run([sys.executable, "-m", "stegomail", *extract], check=True, stdout=out)
print(after_embed, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_embed_and_extract_at_the_message_cap_in_bounded_memory(tmp_path):
    # A 2^20-bit message: a Python object per row takes each command past
    # 170 MB; compact columns hold about 39 and 41 MB.
    message = tmp_path / "message.hex"
    message.write_text(stegomail.RngState(71).bytes(1 << 17).hex())
    trace, stdout = tmp_path / "trace.tsv", tmp_path / "stdout.txt"
    embed = ["embed", "--protocol", "p1", "--key", KEY, "--message", str(message),
             "--channel", str(REPO / "channels" / "uniform1024.json"), "--seed", "73",
             "--out", str(trace)]
    extract = ["extract", "--protocol", "p1", "--key", KEY, "--in", str(trace)]
    src = str(Path(stegomail.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _CAP_WRAPPER, "|".join(embed),
                           "|".join(extract), str(stdout)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, check=True)
    embed_kib, both_kib = map(int, done.stdout.split())
    assert embed_kib <= 64 * 1024 and both_kib <= 64 * 1024, (embed_kib, both_kib)
    assert (hashlib.sha256(trace.read_bytes()).hexdigest(),
            hashlib.sha256(stdout.read_bytes().strip()).hexdigest()) == GOLDEN_CAP
