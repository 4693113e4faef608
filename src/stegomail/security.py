"""Distinguishing games, concrete wardens, and rate/benchmark calculators.

The game follows the passive-adversary model: a distinguisher picks a
hiddentext, receives either the stego output for it (ST) or an equal-length
sequence of normal traffic (CT), and guesses which oracle it talked to.
``run_game`` estimates the advantage |p̂_ST - p̂_CT| over independent trials
with fresh keys, and ``run_prf_reduction_game`` plays the same distinguisher
against the keyed-versus-random-function pair, which is the empirical side
of the reduction from stego security to PRF security.

True insecurity is a supremum over all adversaries and is not computable;
anything reported here is the max over the implemented distinguisher set
and should be read as a lower bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import log2, sqrt
from typing import Sequence

import numpy as np
from scipy import stats as sps

from .baselines import (EmbedStats, s1_embed, s1_extract, s2_embed, s2_extract,
                        s3_embed, s3_extract, s4_embed, s4_extract)
from .channel import ChannelSpec, Document, History, sample_id
from .errors import ConfigError, ProtocolError
from .mail import Mail
from .prf import BitFunction, Counter, Key
from .protocols import (ProtocolAddressSet, StegoKeyState, p1_embed, p1_extract,
                        p1_route, p2_embed, p2_extract)
from .rng import RngState

PRIOR_SYSTEMS = ("s1", "s2", "s3", "s4")
EMAIL_SYSTEMS = ("p1", "p2")
ALL_SYSTEMS = PRIOR_SYSTEMS + EMAIL_SYSTEMS


@dataclass(frozen=True)
class SystemConfig:
    """Which system to run and with which parameters.

    `count` is the rejection-sampling budget for s1/s3 (defaults to the
    key length), `copies` is t for s3/s4, `repetition` is the code factor
    for s2.  With `random_fn` set, the keyed PRF is replaced by the lazily
    sampled random function (the CT side of the PRF game).
    """

    system: str
    count: int | None = None
    copies: int = 3
    repetition: int = 5
    key_bits: int = 128
    random_fn: bool = False

    def __post_init__(self) -> None:
        if self.system not in ALL_SYSTEMS:
            raise ConfigError(f"unknown system {self.system!r}; expected one of {ALL_SYSTEMS}")


@dataclass
class GameTranscript:
    """One game's oracle interaction: queries, responses, and the guess."""

    queries: list = field(default_factory=list)
    responses: list = field(default_factory=list)
    guess: int | None = None

    def documents(self) -> list[Document]:
        docs = []
        for response in self.responses:
            for item in response:
                docs.append(item.doc if isinstance(item, Mail) else item)
        return docs

    def mails(self) -> list[Mail]:
        out = []
        for response in self.responses:
            for item in response:
                if not isinstance(item, Mail):
                    raise ProtocolError("transcript carries bare documents, not mails")
                out.append(item)
        return out


@dataclass(frozen=True)
class AdvantageEstimate:
    value: float
    trials: int
    halfwidth: float
    p_st: float
    p_ct: float


def address_set_for(cfg: SystemConfig) -> ProtocolAddressSet | None:
    """The protocol's address arrays; None for the document-only baselines."""
    if cfg.system in EMAIL_SYSTEMS:
        return ProtocolAddressSet.for_variant(cfg.system)
    return None


def output_length(cfg: SystemConfig, n_bits: int) -> int:
    """Documents (or mails) emitted for an n-bit hiddentext."""
    if cfg.system == "s2":
        return cfg.repetition * n_bits
    if cfg.system in ("s3", "s4"):
        return cfg.copies * n_bits
    return n_bits


def make_fn(cfg: SystemConfig, rng: RngState) -> BitFunction:
    """Fresh bit function for one game/trial, keyed or random per config."""
    if cfg.random_fn:
        return BitFunction.random_oracle(int.from_bytes(rng.bytes(8), "big"))
    return BitFunction.keyed(Key.generate(rng, cfg.key_bits))


def embed_message(cfg: SystemConfig, fn: BitFunction, m: Sequence[int],
                  h: History, spec: ChannelSpec, rng: RngState,
                  start_tick: int = 0, counter_value: int = 0,
                  stats: EmbedStats | None = None):
    """Run the configured system's embedder; mails for p1/p2, documents otherwise."""
    if cfg.system == "s1":
        return s1_embed(fn, m, h, spec, rng, count=cfg.count, stats=stats)
    if cfg.system == "s2":
        return s2_embed(fn, Counter(counter_value), m, h, spec, rng,
                        repetition=cfg.repetition, stats=stats)
    if cfg.system == "s3":
        return s3_embed(fn, m, h, spec, rng, copies=cfg.copies,
                        count=cfg.count, stats=stats)
    if cfg.system == "s4":
        return s4_embed(fn, Counter(counter_value), m, h, spec, rng,
                        copies=cfg.copies, stats=stats)
    state = StegoKeyState(fn, Counter(counter_value))
    if cfg.system == "p1":
        return p1_embed(state, m, h, start_tick, spec, rng, stats)
    return p2_embed(state, m, h, start_tick, spec, rng, stats)


def extract_message(cfg: SystemConfig, fn: BitFunction, outputs,
                    counter_value: int = 0) -> list[int]:
    """Invert the configured system's embedder on its emitted sequence."""
    if cfg.system == "s1":
        return s1_extract(fn, outputs)
    if cfg.system == "s2":
        return s2_extract(fn, Counter(counter_value), outputs, repetition=cfg.repetition)
    if cfg.system == "s3":
        return s3_extract(fn, outputs, copies=cfg.copies)
    if cfg.system == "s4":
        return s4_extract(fn, Counter(counter_value), outputs, copies=cfg.copies)
    state = StegoKeyState(fn, Counter(counter_value))
    if cfg.system == "p1":
        return p1_extract(state, *p1_route(outputs))
    return p2_extract(state, outputs)


# --- the two oracles --------------------------------------------------------

def st_oracle(cfg: SystemConfig, fn: BitFunction, m: Sequence[int], h: History,
              spec: ChannelSpec, rng: RngState, start_tick: int = 0,
              stats: EmbedStats | None = None):
    """The stegotext oracle: exactly the system's embed output for (m, h)."""
    return embed_message(cfg, fn, m, h, spec, rng, start_tick=start_tick, stats=stats)


def ct_oracle(spec: ChannelSpec, address_set: ProtocolAddressSet | None,
              n: int, h: History, rng: RngState, start_tick: int = 0):
    """The covertext oracle: n normal draws with growing history.

    Address arrays are chosen uniformly from the protocol's set and ticks
    follow the same scheme as the embedder, so neither carries a signal.
    With no address set, bare documents are returned (the baselines'
    traffic model).  The caller's history is not mutated.
    """
    last = h.last
    prev = None if last is None else last.id
    out = []
    for i in range(n):
        doc = Document(sample_id(spec, prev, rng))
        prev = doc.id
        if address_set is None:
            out.append(doc)
        else:
            out.append(Mail(doc, address_set.arrays[rng.randrange(2)], start_tick + i))
    return out


# --- goodness of fit against the channel ------------------------------------

@dataclass(frozen=True)
class GofResult:
    statistic: float
    dof: int
    pvalue: float


def channel_goodness_of_fit(spec: ChannelSpec, docs: Sequence[Document],
                            initial_history: History | None = None) -> GofResult:
    """Chi-squared fit of an observed document sequence to the channel.

    Draws are grouped by their conditioning state (a single group for
    stationary channels, one group per predecessor id for markov1, with
    the first draw conditioned on the initial vector), so the test is
    exact-model even under history dependence.  Zero-probability cells are
    excluded; any observation landing in one is impossible under the
    channel and forces p = 0.
    """
    groups: dict[int | None, list[int]] = {}
    if spec.kind == "stationary":
        counts = [0] * spec.alphabet_size
        for d in docs:
            counts[d.id] += 1
        groups[None] = counts
    else:
        last = initial_history.last if initial_history is not None else None
        prev = None if last is None else last.id
        for d in docs:
            counts = groups.setdefault(prev, [0] * spec.alphabet_size)
            counts[d.id] += 1
            prev = d.id
    statistic = 0.0
    dof = 0
    for prev, counts in groups.items():
        row = spec.row(prev)
        n_group = sum(counts)
        positive = 0
        for obs, p in zip(counts, row):
            if p <= 0.0:
                if obs:
                    return GofResult(float("inf"), max(dof, 1), 0.0)
                continue
            positive += 1
            expected = n_group * p
            statistic += (obs - expected) ** 2 / expected
        dof += positive - 1
    if dof == 0:
        return GofResult(statistic, 0, 1.0)
    return GofResult(statistic, dof, float(sps.chi2.sf(statistic, dof)))


# --- distinguishers ----------------------------------------------------------

class ConstantGuessDistinguisher:
    """Ignores the transcript; the estimator-sanity baseline."""

    name = "constant"

    def __init__(self, guess: int = 1) -> None:
        self._guess = guess

    def pick_message(self, n_bits: int, rng: RngState) -> list[int]:
        return rng.bits(n_bits)

    def decide(self, transcript: GameTranscript) -> int:
        return self._guess


class AddressFrequencyDistinguisher:
    """Tests whether the first address array appears with frequency 1/2.

    Guesses ST when a two-sided exact binomial test rejects fairness at
    the given significance, i.e. it attacks the uniformity that the
    random-function version of the embedder provably has.
    """

    name = "address-frequency"

    def __init__(self, address_set: ProtocolAddressSet,
                 significance: float = 0.05) -> None:
        self.address_set = address_set
        self.significance = significance

    def pick_message(self, n_bits: int, rng: RngState) -> list[int]:
        return rng.bits(n_bits)

    def decide(self, transcript: GameTranscript) -> int:
        first = self.address_set.arrays[0]
        mails = transcript.mails()
        hits = sum(1 for s in mails if s.addresses == first)
        for s in mails:
            if s.addresses not in self.address_set.arrays:
                raise ProtocolError(f"mail addressed outside the protocol set: {s.addresses!r}")
        pvalue = sps.binomtest(hits, len(mails), 0.5).pvalue
        return 1 if pvalue < self.significance else 0


class DocumentFrequencyDistinguisher:
    """Tests document frequencies against the (known) channel distribution.

    Queries a constant hiddentext so a rejection-sampling embedder piles
    its output onto the key's matching class; guesses ST when the
    chi-squared fit rejects the channel at the given significance.  This
    is the classic low-min-entropy attack surface.
    """

    name = "document-frequency"

    def __init__(self, spec: ChannelSpec, significance: float = 0.05,
                 constant_bit: int = 0) -> None:
        self.spec = spec
        self.significance = significance
        self.constant_bit = constant_bit

    def pick_message(self, n_bits: int, rng: RngState) -> list[int]:
        return [self.constant_bit] * n_bits

    def decide(self, transcript: GameTranscript) -> int:
        gof = channel_goodness_of_fit(self.spec, transcript.documents())
        return 1 if gof.pvalue < self.significance else 0


DISTINGUISHER_NAMES = ("constant", "address-frequency", "document-frequency")


def build_distinguisher(name: str, cfg: SystemConfig, spec: ChannelSpec,
                        significance: float = 0.05):
    if name == "constant":
        return ConstantGuessDistinguisher()
    if name == "address-frequency":
        address_set = address_set_for(cfg)
        if address_set is None:
            raise ConfigError(
                f"system {cfg.system!r} emits bare documents; no addresses to test")
        return AddressFrequencyDistinguisher(address_set, significance)
    if name == "document-frequency":
        return DocumentFrequencyDistinguisher(spec, significance)
    raise ConfigError(f"unknown distinguisher {name!r}; expected one of {DISTINGUISHER_NAMES}")


# --- the game ----------------------------------------------------------------

def _play_embed_side(distinguisher, cfg: SystemConfig, spec: ChannelSpec,
                     bits_per_game: int, trial_rng: RngState,
                     force_fn: str | None = None) -> int:
    """One game against the embedder; `force_fn` pins the PRF-game side."""
    key_rng = trial_rng.spawn(0)
    msg_rng = trial_rng.spawn(1)
    draw_rng = trial_rng.spawn(2)
    if force_fn == "keyed":
        fn = BitFunction.keyed(Key.generate(key_rng, cfg.key_bits))
    elif force_fn == "random":
        fn = BitFunction.random_oracle(int.from_bytes(key_rng.bytes(8), "big"))
    else:
        fn = make_fn(cfg, key_rng)
    m = distinguisher.pick_message(bits_per_game, msg_rng)
    h = History()
    response = st_oracle(cfg, fn, m, h, spec, draw_rng)
    transcript = GameTranscript(queries=[(tuple(m), ())], responses=[response])
    transcript.guess = distinguisher.decide(transcript)
    return transcript.guess


def _play_ct_side(distinguisher, cfg: SystemConfig, spec: ChannelSpec,
                  bits_per_game: int, trial_rng: RngState) -> int:
    key_rng = trial_rng.spawn(0)
    msg_rng = trial_rng.spawn(1)
    draw_rng = trial_rng.spawn(2)
    Key.generate(key_rng, cfg.key_bits)  # drawn and unused, as in the game definition
    m = distinguisher.pick_message(bits_per_game, msg_rng)
    n = output_length(cfg, bits_per_game)
    response = ct_oracle(spec, address_set_for(cfg), n, History(), draw_rng)
    transcript = GameTranscript(queries=[(tuple(m), ())], responses=[response])
    transcript.guess = distinguisher.decide(transcript)
    return transcript.guess


def _advantage(st_guesses: list[int], ct_guesses: list[int]) -> AdvantageEstimate:
    trials = len(st_guesses)
    p_st = sum(st_guesses) / trials
    p_ct = sum(ct_guesses) / trials
    halfwidth = 1.96 * sqrt(p_st * (1 - p_st) / trials + p_ct * (1 - p_ct) / trials)
    return AdvantageEstimate(abs(p_st - p_ct), trials, halfwidth, p_st, p_ct)


def run_game(distinguisher, cfg: SystemConfig, spec: ChannelSpec, trials: int,
             rng: RngState, bits_per_game: int = 100) -> AdvantageEstimate:
    """Estimate |p̂_ST - p̂_CT| over independent fresh-key games."""
    if trials < 100:
        raise ConfigError(f"need at least 100 trials for a meaningful estimate, got {trials}")
    st_guesses, ct_guesses = [], []
    for t in range(trials):
        trial_rng = rng.spawn(t)
        st_guesses.append(_play_embed_side(
            distinguisher, cfg, spec, bits_per_game, trial_rng.spawn(0)))
        ct_guesses.append(_play_ct_side(
            distinguisher, cfg, spec, bits_per_game, trial_rng.spawn(1)))
    return _advantage(st_guesses, ct_guesses)


def run_prf_reduction_game(distinguisher, cfg: SystemConfig, spec: ChannelSpec,
                           trials: int, rng: RngState,
                           bits_per_game: int = 100) -> AdvantageEstimate:
    """The PRF adversary built from the stego distinguisher.

    Simulates the embedder with the function oracle plugged in, keyed on
    one side and truly random on the other, and forwards the stego
    distinguisher's guess.  Run with the same rng seed as ``run_game``,
    its keyed side replays the ST side draw for draw.
    """
    if trials < 100:
        raise ConfigError(f"need at least 100 trials for a meaningful estimate, got {trials}")
    keyed_guesses, random_guesses = [], []
    for t in range(trials):
        trial_rng = rng.spawn(t)
        keyed_guesses.append(_play_embed_side(
            distinguisher, cfg, spec, bits_per_game, trial_rng.spawn(0), force_fn="keyed"))
        random_guesses.append(_play_embed_side(
            distinguisher, cfg, spec, bits_per_game, trial_rng.spawn(1), force_fn="random"))
    return _advantage(keyed_guesses, random_guesses)


# --- rate, capacity, reliability ---------------------------------------------

def transmission_rate(cfg: SystemConfig, spec: ChannelSpec, rng: RngState,
                      bits: int = 120) -> float:
    """Measured hiddentext bits per document from an actual embed run."""
    stats = EmbedStats()
    fn = make_fn(cfg, rng.spawn(0))
    msg = rng.spawn(1).bits(bits)
    embed_message(cfg, fn, msg, History(), spec, rng.spawn(2), stats=stats)
    if stats.docs_emitted == 0:
        raise ConfigError("no documents emitted; rate undefined")
    return stats.bits_embedded / stats.docs_emitted


def capacity(p: float) -> float:
    """Shannon capacity 1 - H(p) of a binary symmetric channel."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"crossover probability must be in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 1.0
    return 1.0 + p * log2(p) + (1.0 - p) * log2(1.0 - p)


@dataclass(frozen=True)
class ReliabilityReport:
    trials: int
    bits_per_trial: int
    failed_trials: int
    bit_errors: int
    stats: EmbedStats

    @property
    def message_failure_rate(self) -> float:
        return self.failed_trials / self.trials

    @property
    def bit_error_rate(self) -> float:
        return self.bit_errors / (self.trials * self.bits_per_trial)


def reliability_estimate(cfg: SystemConfig, spec: ChannelSpec, bits: int,
                         trials: int, rng: RngState) -> ReliabilityReport:
    """Embed/extract round trips on random messages with fresh keys."""
    stats = EmbedStats()
    failed = 0
    bit_errors = 0
    for t in range(trials):
        trial_rng = rng.spawn(t)
        fn = make_fn(cfg, trial_rng.spawn(0))
        msg = trial_rng.spawn(1).bits(bits)
        outputs = embed_message(cfg, fn, msg, History(), spec,
                                trial_rng.spawn(2), stats=stats)
        recovered = extract_message(cfg, fn, outputs)
        errors = sum(a != b for a, b in zip(msg, recovered))
        if errors or len(recovered) != len(msg):
            failed += 1
        bit_errors += errors
    return ReliabilityReport(trials, bits, failed, bit_errors, stats)


# --- scaling benchmark ---------------------------------------------------------

@dataclass(frozen=True)
class BenchRow:
    system: str
    bits: int
    embed_seconds: float
    extract_seconds: float
    samples_drawn: int
    docs_emitted: int
    prf_evals: int


@dataclass(frozen=True)
class BenchReport:
    rows: list[BenchRow]
    embed_slope: float
    extract_slope: float


def benchmark_scaling(cfg: SystemConfig, spec: ChannelSpec,
                      lengths: Sequence[int], rng: RngState,
                      repeats: int = 3) -> BenchReport:
    """Time embed and extract across message lengths; fit log-log slopes.

    Each length is timed `repeats` times with fresh state and the minimum
    is kept (least scheduler noise).  A slope of 1 on the log-log fit is
    linear scaling.
    """
    rows = []
    for idx, bits in enumerate(lengths):
        best_embed = best_extract = float("inf")
        row_stats = None
        for rep in range(repeats):
            trial_rng = rng.spawn(idx * 1000 + rep)
            fn = make_fn(cfg, trial_rng.spawn(0))
            msg = trial_rng.spawn(1).bits(bits)
            stats = EmbedStats()
            h = History()
            t0 = time.perf_counter()
            outputs = embed_message(cfg, fn, msg, h, spec, trial_rng.spawn(2),
                                    stats=stats)
            t1 = time.perf_counter()
            recovered = extract_message(cfg, fn, outputs)
            t2 = time.perf_counter()
            if recovered != msg and cfg.system in EMAIL_SYSTEMS:
                raise ProtocolError("round trip failed during benchmark")
            best_embed = min(best_embed, t1 - t0)
            best_extract = min(best_extract, t2 - t1)
            row_stats = stats
        rows.append(BenchRow(cfg.system, bits, best_embed, best_extract,
                             row_stats.samples_drawn, row_stats.docs_emitted,
                             row_stats.prf_evals))
    log_n = np.log2([row.bits for row in rows])
    embed_slope = float(np.polyfit(log_n, np.log2([row.embed_seconds for row in rows]), 1)[0])
    extract_slope = float(np.polyfit(log_n, np.log2([row.extract_seconds for row in rows]), 1)[0])
    return BenchReport(rows, embed_slope, extract_slope)
