import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stegomail
from stegomail import deliver, read_trace, write_trace
from stegomail.cli import run
from stegomail.protocols import ADDRESS1, ADDRESS2

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
    boxes = deliver(read_trace(trace))
    box1 = str(tmp_path / "box1.tsv")
    box2 = str(tmp_path / "box2.tsv")
    write_trace(boxes.get(ADDRESS1, ()), box1)
    write_trace(boxes.get(ADDRESS2, ()), box2)
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


def test_bad_channel_file_is_config_error(channel):
    spec = channel(BAD_SUM, "bad.json")
    assert run(["channel-info", "--channel", spec]) == 2


def test_corrupt_trace_is_protocol_error(tmp_path, channel):
    spec = channel(UNIFORM_4)
    trace = tmp_path / "trace.tsv"
    trace.write_text("0\t1\taddress1\n0\t2\taddress1\n")
    assert run(["extract", "--protocol", "p1", "--key", KEY,
                "--in", str(trace)]) == 3


def test_counter_overflow_exit_code(tmp_path, channel, message_file):
    spec = channel(UNIFORM_4)
    trace = str(tmp_path / "trace.tsv")
    assert run(["embed", "--protocol", "p1", "--key", KEY, "--message",
                message_file, "--channel", spec, "--seed", "43",
                "--counter", str(2 ** 64 - 1), "--out", trace]) == 4


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
    done = subprocess.run([sys.executable, "-m", "stegomail", "capacity", "--p", p],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert (done.returncode, done.stdout) == (code, out)
    if code:
        assert "configuration error" in done.stderr
