"""Command-line front end.

Every command takes an explicit seed, so runs are reproducible, and every
CSV output starts with ``# config:`` comment lines recording the full run
configuration.  Exit codes: 0 success, 1 interrupted (click's Abort, as
for Ctrl-C), 2 usage, configuration or file error (an unreadable input,
an unwritable output), 3 protocol/framing error, 4 counter error.
"""

from __future__ import annotations

import shlex
import sys
from math import log2

import click

from .baselines import EmbedStats
from .channel import load_channel_file, min_entropy
from .ecc import bits_from_bytes, bits_from_hex, hex_from_bits
from .errors import ConfigError, CounterError, ProtocolError, _quote
from .mail import _trace_columns, _trace_pieces, read_trace, write_trace
from .prf import BitFunction, Counter, Key
from .protocols import ARRAYS, _embed, _extract, _receive, p1_extract
from .rng import RngState
from .security import (ALL_SYSTEMS, DISTINGUISHER_NAMES, SystemConfig,
                       _gc_paused, benchmark_scaling, build_distinguisher,
                       capacity, reliability_estimate, run_game, transmission_rate)

DEFAULT_BENCH_LENGTHS = "256,512,1024,2048,4096,8192,16384"

# Options that several commands take, each declared once.
_CHANNEL = click.option("--channel", required=True, type=click.Path(exists=True, dir_okay=False),
                        help="Channel distribution as a JSON file.")
_KEY = click.option("--key", "key_hex", required=True, help="Secret key as hex.")
_PROTOCOL = click.option("--protocol", type=click.Choice(list(ARRAYS)), required=True,
                         help="Email stegosystem.")
_COUNTER = click.option("--counter", default=0, show_default=True, help="Initial counter value.")
_SEED = click.option("--seed", required=True, type=int, help="Seed of the run's random stream.")
_RANDOM_FN = click.option("--random-fn", is_flag=True,
                          help="Replace the keyed PRF by a random function.")
_COUNT = click.option("--count", default=None, type=int, help="Rejection-sampling budget (s1/s3).")
_COPIES = click.option("--copies", default=3, show_default=True, help="Documents per bit (s3/s4).")
_REPETITION = click.option("--ecc-repetition", "repetition", default=5, show_default=True,
                           help="Repetition code factor (s2).")


def _config_header(**overrides) -> str:
    """The running command and every option it was given, but the secret key
    and the output path, as one comment line; `overrides` replace values.

    Each value is shell-quoted, so ``shlex.split`` reads every item back as
    one `key=value` token; a shell-safe value is written as it is."""
    ctx = click.get_current_context()
    params = {k: v for k, v in ctx.params.items() if k not in ("key_hex", "out_path")}
    params.update(command=ctx.info_name, **overrides)
    items = " ".join(f"{k}={shlex.quote(str(v))}" for k, v in sorted(params.items()))
    return f"# config: {items}"


def _read_message_bits(path: str, message_format: str) -> list[int]:
    with open(path, "rb") as f:
        raw = f.read()
    if message_format == "hex":
        try:
            return bits_from_hex(raw.decode("ascii"))
        except UnicodeDecodeError as e:
            raise ConfigError(f"message file {path} is not hex text") from e
    return bits_from_bytes(raw)


@click.group()
def main() -> None:
    """Simulate and attack black-box stegosystems over email channels."""


@main.command()
@_PROTOCOL
@_KEY
@_COUNTER
@click.option("--message", "message_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--message-format", type=click.Choice(["hex", "raw"]),
              default="hex", show_default=True)
@_CHANNEL
@_SEED
@click.option("--start-tick", default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def embed(protocol, key_hex, counter, message_path, message_format,
          channel, seed, start_tick, out_path) -> None:
    """Embed a message file into a mail trace."""
    spec = load_channel_file(channel)
    bits = _read_message_bits(message_path, message_format)
    stats = EmbedStats()
    # A bad key fails before a bad counter; the mails go as columns, no Mail per bit.
    fn, counter = BitFunction.keyed(Key.from_hex(key_hex)), Counter(counter)
    write_trace(_embed(fn, counter, protocol, bits, spec, RngState(seed), start_tick,
                       stats, None), out_path)
    click.echo(f"embedded {stats.bits_embedded} bits into {stats.docs_emitted} mails "
               f"({stats.samples_drawn} channel draws) -> {out_path}")
    click.echo(f"next counter: {counter.value}")


@main.command()
@_PROTOCOL
@_KEY
@_COUNTER
@click.option("--in", "in_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--in2", "in2_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Second mailbox trace (p1 only).")
def extract(protocol, key_hex, counter, in_path, in2_path) -> None:
    """Recover the hiddentext from trace file(s); prints hex."""
    if in2_path is not None and protocol != "p1":
        raise ConfigError("p2 extraction reads a single mailbox trace")
    fn = BitFunction.keyed(Key.from_hex(key_hex))
    # Each trace is parsed before the counter is built, as for the library's
    # extractors, which take parsed mails.
    if in2_path is None:
        # A single p1 trace is the full sent sequence; a p2 trace is one
        # mailbox.  It is read piece by piece into compact columns, with no
        # Mail per line.
        received = _receive(protocol, _trace_columns(_trace_pieces(in_path)))
        bits = _extract(fn, Counter(counter), received)
    else:
        # Two traces are the two mailboxes themselves.
        box1, box2 = read_trace(in_path), read_trace(in2_path)
        bits = p1_extract(fn, Counter(counter), box1, box2)
    click.echo(hex_from_bits(bits))


@main.command()
@click.option("--system", type=click.Choice(list(ALL_SYSTEMS)), required=True)
@_CHANNEL
@click.option("--key", "key_hex", default=None, help="Secret key as hex (omit with --random-fn).")
@click.option("--bits", default=64, show_default=True, help="Message bits per trial.")
@click.option("--trials", default=100, show_default=True)
@_COUNT
@_COPIES
@_REPETITION
@_RANDOM_FN
@_SEED
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False),
              help="Write the per-trial CSV here; aggregate always goes to stdout.")
def simulate(system, channel, key_hex, bits, trials, count, copies,
             repetition, random_fn, seed, out_path) -> None:
    """Round-trip reliability simulation; per-trial and aggregate CSV."""
    spec = load_channel_file(channel)
    cfg = SystemConfig(system, count, copies, repetition, random_fn=random_fn)
    if (key_hex is None) != random_fn:
        raise ConfigError("give exactly one of --key and --random-fn")
    header = _config_header()
    fn = BitFunction.keyed(Key.from_hex(key_hex)) if key_hex is not None else None
    report = reliability_estimate(cfg, spec, bits, trials, RngState(seed), fn=fn)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(header + "\n")
            f.write("trial,bits,bit_errors,failed,samples_drawn,docs_emitted,wall_time_s\n")
            f.write("".join(f"{t},{bits},{r.bit_errors},{r.failed},{r.samples_drawn},"
                            f"{r.docs_emitted},{r.wall_s:.6f}\n"
                            for t, r in enumerate(report.rows)))
    click.echo(header)
    click.echo("trials,bits_total,failure_rate,bit_error_rate,samples_drawn,"
               "docs_emitted,wall_time_s")
    click.echo(f"{trials},{trials * bits},{report.message_failure_rate!r},"
               f"{report.bit_error_rate!r},{report.stats.samples_drawn},"
               f"{report.stats.docs_emitted},{sum(r.wall_s for r in report.rows):.6f}")


@main.command()
@click.option("--system", type=click.Choice(list(ALL_SYSTEMS)), required=True)
@click.option("--distinguisher", type=click.Choice(list(DISTINGUISHER_NAMES)),
              required=True)
@_CHANNEL
@click.option("--trials", default=1000, show_default=True)
@click.option("--bits-per-game", default=100, show_default=True)
@click.option("--significance", default=0.05, show_default=True)
@_COUNT
@_COPIES
@_REPETITION
@_RANDOM_FN
@_SEED
def attack(system, distinguisher, channel, trials, bits_per_game,
           significance, count, copies, repetition, random_fn, seed) -> None:
    """Run the ST/CT distinguishing game; one CSV result row."""
    spec = load_channel_file(channel)
    cfg = SystemConfig(system, count, copies, repetition, random_fn=random_fn)
    warden = build_distinguisher(distinguisher, cfg, spec, significance)
    estimate = run_game(warden, cfg, spec, trials, RngState(seed), bits_per_game)
    click.echo(_config_header())
    click.echo("system,distinguisher,trials,advantage,halfwidth,p_st,p_ct")
    click.echo(f"{system},{distinguisher},{trials},{estimate.value!r},"
               f"{estimate.halfwidth!r},{estimate.p_st!r},{estimate.p_ct!r}")


@main.command()
@click.option("--system", "systems", default="all", show_default=True,
              help="Comma-separated system names, or 'all'.")
@_CHANNEL
@click.option("--bits", default=120, show_default=True)
@_COUNT
@_COPIES
@_REPETITION
@_SEED
def rate(systems, channel, bits, count, copies, repetition, seed) -> None:
    """Measured transmission rate (hiddentext bits per document)."""
    spec = load_channel_file(channel)
    names = (list(ALL_SYSTEMS) if systems == "all"
             else [name.strip() for name in systems.split(",")])
    # Every row is computed before anything is printed, so a refused run
    # leaves no partial table on stdout.
    lines = [_config_header(systems=",".join(names)), "system,bits,docs,rate"]
    for i, name in enumerate(names):
        cfg = SystemConfig(name, count, copies, repetition)
        value = transmission_rate(cfg, spec, RngState(seed).spawn(i), bits=bits)
        lines.append(f"{cfg.system},{bits},{round(bits / value)},{value!r}")
    click.echo("".join(line + "\n" for line in lines), nl=False)


@main.command("capacity")
@click.option("--p", "crossover", required=True, type=float)
def capacity_cmd(crossover) -> None:
    """Binary symmetric channel capacity 1 - H(p)."""
    click.echo(f"{capacity(crossover)!r}")


@main.command("channel-info")
@_CHANNEL
def channel_info(channel) -> None:
    """Alphabet size, min-entropy, and top document probabilities."""
    spec = load_channel_file(channel)
    click.echo(f"kind: {spec.kind}")
    click.echo(f"alphabet_size: {spec.alphabet_size}")
    click.echo(f"min_entropy_bits: {min_entropy(spec)!r}")
    if spec.kind == "markov1":
        # 0.0 - x, not -x: a deterministic row reads 0.0, not -0.0.
        click.echo(f"min_entropy_bits_worst_row: {0.0 - log2(max(map(max, spec.matrix)))!r}")
    top = sorted(enumerate(spec.row(None)), key=lambda kv: (-kv[1], kv[0]))[:5]
    for doc_id, p in top:
        click.echo(f"doc {doc_id}: {p!r}")


@main.command()
@click.option("--systems", default="p1,p2", show_default=True)
@click.option("--lengths", default=DEFAULT_BENCH_LENGTHS, show_default=True)
@_CHANNEL
@_COUNT
@_COPIES
@_REPETITION
@click.option("--repeats", default=3, show_default=True)
@_SEED
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
def bench(systems, lengths, channel, count, copies, repetition, repeats,
          seed, out_path) -> None:
    """Wall-time scaling across message lengths, with log-log slope fits."""
    spec = load_channel_file(channel)
    try:
        sizes = [int(x) for x in lengths.split(",")]
    except ValueError as e:
        raise ConfigError(
            f"--lengths must be comma-separated integers, got {_quote(lengths)}") from e
    names = [name.strip() for name in systems.split(",")]
    lines = [_config_header(systems=",".join(names), lengths=",".join(map(str, sizes))),
             "system,bits,embed_seconds,extract_seconds,samples_drawn,"
             "docs_emitted,prf_evals"]
    slopes = []
    for i, name in enumerate(names):
        cfg = SystemConfig(name, count, copies, repetition)
        report = benchmark_scaling(cfg, spec, sizes, RngState(seed).spawn(i),
                                   repeats=repeats)
        for row in report.rows:
            lines.append(f"{row.system},{row.bits},{row.embed_seconds:.6f},"
                         f"{row.extract_seconds:.6f},{row.samples_drawn},"
                         f"{row.docs_emitted},{row.prf_evals}")
        slopes.append(f"# {cfg.system}: embed_slope={report.embed_slope:.3f} "
                      f"extract_slope={report.extract_slope:.3f}")
    lines.extend(slopes)
    text = "".join(line + "\n" for line in lines)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    click.echo(text, nl=False)


def run(argv=None) -> int:
    """Run one command with the cyclic GC paused; map library errors to exit codes."""
    try:
        with _gc_paused():
            main.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Abort:
        return 1
    except click.ClickException as e:
        e.show()
        return e.exit_code
    except (ConfigError, OSError) as e:
        click.echo(f"configuration error: {e}", err=True)
        return 2
    except ProtocolError as e:
        click.echo(f"protocol error: {e}", err=True)
        return 3
    except CounterError as e:
        click.echo(f"counter error: {e}", err=True)
        return 4


def console_main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    console_main()
