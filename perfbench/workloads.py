"""The four benchmark workloads, driven through stegomail's public calls.

Each workload is a closed loop with one client.  ``setup`` builds or loads
the channels and every input from the seed; ``op(state, i)`` makes one
timed top-level call and checks its output.  Op ``i`` always gets the
same inputs for the same seed, so counts repeat exactly.  Ops rotate
through ``kinds``; consecutive runs of ``len(kinds)`` ops hold one op of
each kind.  See README.md for why each workload is here.

Library calls go through module attributes (``security.run_game``, not a
name imported from it) so that the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import re
from dataclasses import dataclass
from math import sqrt
from pathlib import Path
from time import perf_counter

from stegomail import channel, security
from stegomail.rng import RngState
from stegomail.security import SystemConfig

CHANNEL_DIR = Path(__file__).resolve().parent.parent / "channels"


@dataclass
class OpResult:
    """One op's verdict plus what the library reported about its work."""

    ok: bool
    draws: int | None = None       # EmbedStats.samples_drawn, where returned
    prf_evals: int | None = None   # EmbedStats.prf_evals, where returned
    send_s: float | None = None
    recv_s: float | None = None


def op_rng(seed: int, i: int) -> RngState:
    """Op i's stream; equal to RngState(seed).spawn(i) without calling spawn."""
    return RngState(seed, (i,))


# --- email-roundtrip: criterion 1's shape -------------------------------------

@dataclass
class EmailState:
    seed: int
    specs: dict


EMAIL_CHANNELS = ("uniform1024.json", "point_mass4.json", "markov2.json")


class EmailRoundtrip:
    """Short p1/p2 round trips: per-trial setup and per-bit object churn."""

    name = "email-roundtrip"
    kinds = tuple((system, chan) for system in ("p1", "p2") for chan in EMAIL_CHANNELS)
    trials = 8
    bits = 64
    trace_ops_per_s = 50.0

    def setup(self, seed: int, workdir: Path) -> EmailState:
        specs = {name: channel.load_channel_file(CHANNEL_DIR / name)
                 for name in EMAIL_CHANNELS}
        return EmailState(seed, specs)

    def op(self, state: EmailState, i: int) -> OpResult:
        system, chan = self.kinds[i % len(self.kinds)]
        rep = security.reliability_estimate(
            SystemConfig(system), state.specs[chan], self.bits, self.trials,
            op_rng(state.seed, i))
        s = rep.stats
        bits = self.trials * self.bits
        ok = (rep.failed_trials == 0 and rep.bit_errors == 0
              and s.samples_drawn == s.prf_evals == s.bits_embedded == bits)
        return OpResult(ok, s.samples_drawn, s.prf_evals)

    def pooled_failures(self, state: EmailState, ops: int) -> int:
        return 0


# --- cli-trace: what a CLI user runs ------------------------------------------

EMBED_LINE = re.compile(r"embedded (\d+) bits into (\d+) mails \((\d+) channel draws\)")


@dataclass
class CliState:
    seed: int
    cli: object
    key_hex: str
    message_hex: str
    message_path: Path
    trace_path: Path
    channel_path: Path


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


class CliTrace:
    """In-process `stegomail embed` then `stegomail extract` at 16384 bits."""

    name = "cli-trace"
    kinds = ("p1", "p2")
    message_bits = 16384
    trace_ops_per_s = 0.6

    def setup(self, seed: int, workdir: Path) -> CliState:
        # Imported here: click is part of this workload's set-up cost only.
        from stegomail import cli
        message_hex = op_rng(seed, -1).bytes(self.message_bits // 8).hex()
        message_path = workdir / "message.hex"
        message_path.write_text(message_hex, encoding="ascii")
        return CliState(seed, cli, op_rng(seed, -2).bytes(16).hex(), message_hex,
                        message_path, workdir / "trace.tsv",
                        CHANNEL_DIR / "uniform1024.json")

    def op(self, state: CliState, i: int) -> OpResult:
        protocol = self.kinds[i % len(self.kinds)]
        embed_seed = op_rng(state.seed, i).randrange(1 << 31)
        t0 = perf_counter()
        code, out = run_cli(state.cli, [
            "embed", "--protocol", protocol, "--key", state.key_hex,
            "--message", str(state.message_path), "--channel", str(state.channel_path),
            "--seed", str(embed_seed), "--out", str(state.trace_path)])
        t1 = perf_counter()
        code2, out2 = run_cli(state.cli, [
            "extract", "--protocol", protocol, "--key", state.key_hex,
            "--in", str(state.trace_path)])
        t2 = perf_counter()
        match = EMBED_LINE.search(out)
        draws = int(match.group(3)) if match else None
        ok = (code == 0 and code2 == 0 and out2.strip() == state.message_hex
              and match is not None
              and int(match.group(1)) == int(match.group(2)) == draws
              == self.message_bits)
        return OpResult(ok, draws, None, t1 - t0, t2 - t1)

    def pooled_failures(self, state: CliState, ops: int) -> int:
        return 0


# --- warden-game: the first half of criterion 8 ---------------------------------

# Significance of the document-frequency warden (its default).
ALPHA = 0.05
# Information-theoretic cap on this warden's advantage against s1 on the
# two-document channel: a key whose bit is constant on the alphabet leaves
# s1's output uniform, which happens for half the keys.
ADVANTAGE_CAP = 0.5 - ALPHA / 2
# The pooled check allows two 95% halfwidths above the cap (about 3.9
# standard errors), so an honest run trips it about once in 20000 runs;
# one halfwidth would trip in about one run in 70.
CAP_HALFWIDTHS = 2


@dataclass
class WardenState:
    seed: int
    spec: object
    cfg: SystemConfig
    warden: object
    st_hits: int = 0
    ct_hits: int = 0
    trials: int = 0


class WardenGame:
    """Document-frequency warden against s1 (count=128) on uniform(2)."""

    name = "warden-game"
    kinds = ("s1",)
    trials = 100
    bits_per_game = 100
    trace_ops_per_s = 0.15

    def setup(self, seed: int, workdir: Path) -> WardenState:
        spec = channel.load_channel_file(CHANNEL_DIR / "binary.json")
        cfg = SystemConfig("s1", count=128)
        warden = security.build_distinguisher("document-frequency", cfg, spec, ALPHA)
        return WardenState(seed, spec, cfg, warden)

    def op(self, state: WardenState, i: int) -> OpResult:
        est = security.run_game(state.warden, state.cfg, state.spec, self.trials,
                                op_rng(state.seed, i), self.bits_per_game)
        state.st_hits += round(est.p_st * est.trials)
        state.ct_hits += round(est.p_ct * est.trials)
        state.trials += est.trials
        ok = est.trials == self.trials and 0.0 <= est.value <= 1.0
        return OpResult(ok)

    def pooled_advantage(self, state: WardenState) -> tuple[float, float]:
        n = state.trials
        p_st, p_ct = state.st_hits / n, state.ct_hits / n
        halfwidth = 1.96 * sqrt(p_st * (1 - p_st) / n + p_ct * (1 - p_ct) / n)
        return abs(p_st - p_ct), halfwidth

    def pooled_failures(self, state: WardenState, ops: int) -> int:
        advantage, halfwidth = self.pooled_advantage(state)
        return ops if advantage > ADVANTAGE_CAP + CAP_HALFWIDTHS * halfwidth else 0


# --- prior-systems: criteria 4 and 5's shape -------------------------------------

# Per-bit failure of majority-of-5 over a per-copy failure of 1/4.
BINOMIAL_TAIL = 106 / 1024
BER_TOLERANCE = 0.01


@dataclass
class PriorState:
    seed: int
    spec: object
    voted_ops: int = 0
    voted_bits: int = 0
    voted_errors: int = 0


class PriorSystems:
    """Random-function s2 (r=5), s3 (t=3), s4 (t=5) on uniform(2^16)."""

    name = "prior-systems"
    kinds = (SystemConfig("s2", repetition=5, random_fn=True),
             SystemConfig("s3", copies=3, random_fn=True),
             SystemConfig("s4", copies=5, random_fn=True))
    trials = 2
    bits = 100
    trace_ops_per_s = 25.0

    def setup(self, seed: int, workdir: Path) -> PriorState:
        return PriorState(seed, channel.ChannelSpec.uniform(1 << 16))

    def op(self, state: PriorState, i: int) -> OpResult:
        cfg = self.kinds[i % len(self.kinds)]
        rep = security.reliability_estimate(cfg, state.spec, self.bits, self.trials,
                                            op_rng(state.seed, i))
        s = rep.stats
        ok = s.bits_embedded == self.trials * self.bits
        if cfg.system == "s3":
            ok = ok and rep.bit_errors == 0
        else:
            state.voted_ops += 1
            state.voted_bits += self.trials * self.bits
            state.voted_errors += rep.bit_errors
        return OpResult(ok, s.samples_drawn, s.prf_evals)

    def pooled_failures(self, state: PriorState, ops: int) -> int:
        ber = state.voted_errors / state.voted_bits if state.voted_bits else BINOMIAL_TAIL
        return state.voted_ops if abs(ber - BINOMIAL_TAIL) > BER_TOLERANCE else 0


WORKLOADS = {w.name: w for w in (EmailRoundtrip(), CliTrace(), WardenGame(), PriorSystems())}
