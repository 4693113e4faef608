import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stegomail
from stegomail import read_trace, write_trace
from stegomail.cli import run
from stegomail.protocols import p1_route

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
    write_trace(to1, box1)
    write_trace(to2, box2)
    capsys.readouterr()
    assert run(["extract", "--protocol", "p1", "--key", KEY,
                "--in", box1, "--in2", box2]) == 0
    assert out_lines(capsys)[-1] == "deadbeef0badf00d"


def test_embed_extract_round_trip_p2(tmp_path, channel, message_file, capsys):
    spec = channel(MARKOV_2)
    trace = str(tmp_path / "trace.tsv")
    run(["embed", "--protocol", "p2", "--key", KEY, "--message", message_file,
         "--channel", spec, "--seed", "13", "--out", trace])
    capsys.readouterr()
    assert run(["extract", "--protocol", "p2", "--key", KEY,
                "--in", trace]) == 0
    assert out_lines(capsys)[-1] == "deadbeef0badf00d"


def test_extract_p2_rejects_second_trace(tmp_path, channel, message_file, capsys):
    spec = channel(UNIFORM_4)
    trace = str(tmp_path / "trace.tsv")
    run(["embed", "--protocol", "p2", "--key", KEY, "--message", message_file,
         "--channel", spec, "--seed", "13", "--out", trace])
    assert run(["extract", "--protocol", "p2", "--key", KEY,
                "--in", trace, "--in2", trace]) == 2


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


@pytest.mark.parametrize("argv, options", [
    (["attack", "--system", "s1", "--distinguisher", "document-frequency",
      "--trials", "100", "--bits-per-game", "10", "--seed", "1"],
     [["--count", "2"], ["--copies", "5"], ["--ecc-repetition", "3"], ["--random-fn"]]),
    (["bench", "--systems", "p1", "--lengths", "16,32", "--repeats", "1", "--seed", "5"],
     [["--count", "2"], ["--copies", "5"], ["--ecc-repetition", "3"]]),
], ids=["attack", "bench"])
def test_config_header_records_every_system_option(argv, options, channel, capsys):
    argv = [*argv, "--channel", channel(UNIFORM_4)]
    base = _config_line(argv, capsys)
    assert base.startswith("# config: ")
    for option in options:
        assert _config_line([*argv, *option], capsys) != base, option


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


@pytest.mark.parametrize("command", [
    ["embed", "--protocol", "p1", "--key", KEY],
    ["simulate", "--system", "p1", "--key", KEY, "--bits", "8", "--trials", "2"],
    ["bench", "--systems", "p1", "--lengths", "8,16", "--repeats", "1"],
], ids=["embed", "simulate", "bench"])
def test_output_in_a_missing_directory_is_config_error(command, tmp_path, channel,
                                                       message_file, capsys):
    args = command + ["--channel", channel(UNIFORM_4), "--seed", "5",
                      "--out", str(tmp_path / "missing" / "out")]
    if command[0] == "embed":
        args += ["--message", message_file]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "No such file" in err


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
        return
    sent = (data if message_format == "raw"
            else bytes.fromhex("".join(data.decode("ascii").split())))
    assert out_lines(capsys)[-1] == f"next counter: {counter + 8 * len(sent)}"
    assert all(mail.doc.id < channel_spec["alphabet_size"] for mail in read_trace(trace))
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
    st.text(alphabet="0123456789-\t\n,address", max_size=40))
EXTRACT_IN2 = st.tuples(
    st.just(["extract"]), st.sampled_from(["p1", "p2"]).map(lambda v: ["--protocol", v]),
    KEYS.map(lambda v: ["--key", v]), COUNTERS.map(lambda v: ["--counter", str(v)]),
    st.just(["--in", "box1.tsv", "--in2", "box2.tsv"]))


def _argv(parts):
    return [arg for part in parts for arg in part]


CLI_COMMANDS = st.one_of(
    st.one_of(SIMULATE, ATTACK, RATE, BENCH, st.just((["channel-info"],))).map(
        lambda parts: [*_argv(parts), "--channel", "channel.json"]),
    EXTRACT_IN2.map(_argv))


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
    capsys.readouterr()


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
