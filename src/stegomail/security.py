"""Distinguishing games, concrete wardens, and rate/benchmark calculators.

The game follows the passive-adversary model: a distinguisher picks a
hiddentext, receives either the stego output for it (ST) or an equal-length
sequence of normal traffic (CT), and guesses which oracle it talked to.
``run_game`` estimates the advantage |p̂_ST - p̂_CT| over independent trials
with fresh keys, or, with ``SystemConfig.random_fn``, with a fresh truly
random function in place of the keyed PRF.

True insecurity is a supremum over all adversaries and is not computable;
anything reported here is the max over the implemented distinguisher set
and should be read as a lower bound.
"""

from __future__ import annotations

import gc
import time
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from math import log2, sqrt
from operator import ne
from statistics import linear_regression
from typing import NamedTuple

from .baselines import (EmbedStats, s1_embed, s1_extract, s2_embed, s2_extract,
                        s3_embed, s3_extract, s4_embed, s4_extract)
from .channel import ChannelSpec, sample_id
from .errors import ConfigError, ProtocolError
from .mail import Mail, _columns, _mails
from .prf import BitFunction, Counter, Key
from .protocols import ARRAYS, _extract, _receive, p1_embed, p2_embed, p2_extract
from .rng import RngState
from .stats import binom_half_pvalue, chi2_sf

ALL_SYSTEMS = ("s1", "s2", "s3", "s4", "p1", "p2")

# Least wall time one benchmark_scaling sample covers, by re-running its trial.
_MIN_SAMPLE_S = 0.05

# Longest message a generated run takes: each bit is a list entry and at
# least one draw, so a size with no bound allocates and loops without end.
_MAX_MESSAGE_BITS = 1 << 20


def _check_message_bits(bits: int, what: str) -> None:
    if bits > _MAX_MESSAGE_BITS:
        raise ConfigError(f"{what} = {bits} exceeds the cap of {_MAX_MESSAGE_BITS} "
                          f"message bits")


@dataclass(frozen=True)
class SystemConfig:
    """Which system to run and with which parameters.

    `count` is the rejection-sampling budget for s1/s3 (defaults to the
    key length), `copies` is t for s3/s4, `repetition` is the code factor
    for s2.  With `random_fn` set, the keyed PRF is replaced by the lazily
    sampled random function.
    """

    system: str
    count: int | None = None
    copies: int = 3
    repetition: int = 5
    random_fn: bool = False

    def __post_init__(self) -> None:
        if self.system not in ALL_SYSTEMS:
            raise ConfigError(f"unknown system {self.system!r}; expected one of {ALL_SYSTEMS}")


class AdvantageEstimate(NamedTuple):
    value: float
    trials: int
    halfwidth: float
    p_st: float
    p_ct: float


def make_fn(cfg: SystemConfig, rng: RngState) -> BitFunction:
    """Fresh bit function for one game/trial, keyed or random per config."""
    if cfg.random_fn:
        return BitFunction.random_oracle(int.from_bytes(rng.bytes(8), "big"))
    return BitFunction.keyed(Key.generate(rng))


def embed_message(cfg: SystemConfig, fn: BitFunction, m: Sequence[int],
                  spec: ChannelSpec, rng: RngState, stats: EmbedStats | None = None):
    """Run the configured system's embedder from counter 0, where ``extract_message``
    reads; mails for p1/p2, document ids otherwise."""
    if cfg.system == "s1":
        return s1_embed(fn, m, spec, rng, count=cfg.count, stats=stats)
    if cfg.system == "s2":
        return s2_embed(fn, Counter(), m, spec, rng,
                        repetition=cfg.repetition, stats=stats)
    if cfg.system == "s3":
        return s3_embed(fn, m, spec, rng, copies=cfg.copies,
                        count=cfg.count, stats=stats)
    if cfg.system == "s4":
        return s4_embed(fn, Counter(), m, spec, rng,
                        copies=cfg.copies, stats=stats)
    if cfg.system == "p1":
        return p1_embed(fn, Counter(), m, spec, rng, stats=stats)
    return p2_embed(fn, Counter(), m, spec, rng, stats=stats)


def extract_message(cfg: SystemConfig, fn: BitFunction, outputs) -> list[int]:
    """Invert the configured system's embedder on its emitted sequence.

    A ``p1`` sequence is read as sent, so it must be in send order; two
    separate mailboxes go through ``p1_extract``, which merges them.  An
    iterator is read into a list first; a sequence is read as it is.
    """
    if not isinstance(outputs, Sequence):
        outputs = list(outputs)
    if cfg.system == "s1":
        return s1_extract(fn, outputs)
    if cfg.system == "s2":
        return s2_extract(fn, Counter(), outputs, repetition=cfg.repetition)
    if cfg.system == "s3":
        return s3_extract(fn, outputs, copies=cfg.copies)
    if cfg.system == "s4":
        return s4_extract(fn, Counter(), outputs, copies=cfg.copies)
    if cfg.system == "p1":
        return _extract(fn, Counter(), _receive("p1", [_columns(outputs)]))
    return p2_extract(fn, Counter(), outputs)


# --- the covertext oracle (the stegotext oracle is embed_message) -------------

def ct_oracle(spec: ChannelSpec, arrays, n: int, rng: RngState):
    """The covertext oracle: n normal draws, each conditioned on the last.

    The first draw is conditioned on no previous document, as the
    embedder's is.  Address arrays are chosen uniformly from the
    protocol's constant pair, so mails skip ``Mail``'s checks, and ticks
    count from 0 as the embedder's do, so neither carries a signal.  With
    no pair, bare document ids are returned (the baselines' traffic model).
    """
    prev = None
    ids, addrs = [], []
    for _ in range(n):
        prev = sample_id(spec, prev, rng)
        ids.append(prev)
        if arrays is not None:
            addrs.append(arrays[rng.randrange(2)])
    return ids if arrays is None else _mails(range(n), ids, addrs)


# --- goodness of fit against the channel ------------------------------------

class GofResult(NamedTuple):
    statistic: float
    dof: int
    pvalue: float


def channel_goodness_of_fit(spec: ChannelSpec, docs: Sequence[int]) -> GofResult:
    """Chi-squared fit of an observed sequence of document ids to the channel.

    Draws are grouped by their conditioning state (a single group for
    stationary channels, one group per predecessor id for markov1, with
    the first draw conditioned on the initial vector), so the test is
    exact-model even under history dependence.  Zero-probability cells are
    excluded; any observation landing in one, or outside the alphabet, is
    impossible under the channel and forces p = 0.
    """
    docs = list(docs)  # read twice: a negative id would count a cell from the end
    if min(docs, default=0) < 0:
        return GofResult(float("inf"), 1, 0.0)
    groups: dict[int | None, list[int]] = {}
    try:
        if spec.kind == "stationary":
            counts = [0] * spec.alphabet_size
            for d in docs:
                counts[d] += 1
            groups[None] = counts
        else:
            prev = None
            for d in docs:
                counts = groups.get(prev) or groups.setdefault(prev, [0] * spec.alphabet_size)
                counts[d] += 1
                prev = d
    except IndexError:  # an id past the alphabet
        return GofResult(float("inf"), 1, 0.0)
    statistic = 0.0
    dof = 0
    for prev, counts in groups.items():
        row = spec.row(prev)
        n_group = sum(counts)
        if not n_group:
            continue
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
    return GofResult(statistic, dof, chi2_sf(statistic, dof))


# --- distinguishers ----------------------------------------------------------

class ConstantGuessDistinguisher:
    """Ignores the response and always guesses ST; the estimator-sanity baseline."""

    def pick_message(self, n_bits: int, rng: RngState) -> list[int]:
        return rng.bits(n_bits)

    def decide(self, response) -> int:
        return 1


class AddressFrequencyDistinguisher:
    """Tests whether the first address array appears with frequency 1/2.

    Guesses ST when a two-sided exact binomial test rejects fairness at
    the given significance, i.e. it attacks the uniformity that the
    random-function version of the embedder provably has.
    """

    def __init__(self, arrays, significance: float = 0.05) -> None:
        self.arrays = arrays
        self.significance = significance

    def pick_message(self, n_bits: int, rng: RngState) -> list[int]:
        return rng.bits(n_bits)

    def decide(self, response) -> int:
        for s in response:
            if not isinstance(s, Mail):
                raise ProtocolError("response carries bare documents, not mails")
            if s.addresses not in self.arrays:
                raise ProtocolError(f"mail addressed outside the protocol set: {s.addresses!r}")
        hits = sum(1 for s in response if s.addresses == self.arrays[0])
        return 1 if binom_half_pvalue(hits, len(response)) < self.significance else 0


class DocumentFrequencyDistinguisher:
    """Tests document frequencies against the (known) channel distribution.

    Queries the all-zero hiddentext so a rejection-sampling embedder piles
    its output onto the key's matching class; guesses ST when the
    chi-squared fit rejects the channel at the given significance.  This
    is the classic low-min-entropy attack surface.
    """

    def __init__(self, spec: ChannelSpec, significance: float = 0.05) -> None:
        self.spec = spec
        self.significance = significance

    def pick_message(self, n_bits: int, rng: RngState) -> list[int]:
        return [0] * n_bits

    def decide(self, response: Sequence) -> int:
        # Document ids are fitted as given; only a response holding mails is unwrapped.
        if any(issubclass(kind, Mail) for kind in set(map(type, response))):
            response = [s.doc if isinstance(s, Mail) else s for s in response]
        gof = channel_goodness_of_fit(self.spec, response)
        return 1 if gof.pvalue < self.significance else 0


DISTINGUISHER_NAMES = ("constant", "address-frequency", "document-frequency")


def build_distinguisher(name: str, cfg: SystemConfig, spec: ChannelSpec,
                        significance: float = 0.05):
    if not 0.0 < significance < 1.0:
        raise ConfigError(f"significance must be in (0, 1), got {significance}")
    if name == "constant":
        return ConstantGuessDistinguisher()
    if name == "address-frequency":
        arrays = ARRAYS.get(cfg.system)
        if arrays is None:
            raise ConfigError(
                f"system {cfg.system!r} emits bare documents; no addresses to test")
        return AddressFrequencyDistinguisher(arrays, significance)
    if name == "document-frequency":
        return DocumentFrequencyDistinguisher(spec, significance)
    raise ConfigError(f"unknown distinguisher {name!r}; expected one of {DISTINGUISHER_NAMES}")


# --- the game ----------------------------------------------------------------

def run_game(distinguisher, cfg: SystemConfig, spec: ChannelSpec, trials: int,
             rng: RngState, bits_per_game: int = 100) -> AdvantageEstimate:
    """Estimate |p̂_ST - p̂_CT| over `trials` pairs of games.

    In each game the distinguisher picks a hiddentext on the game's
    ``spawn(1)`` and guesses from one response.  Trial t's ST game runs on
    ``rng.spawn(t).spawn(0)``: the embedder's output under a fresh function
    drawn per `cfg` on ``spawn(0)``, with its draws on ``spawn(2)``.  Its CT
    game runs on ``rng.spawn(t).spawn(1)``: normal traffic as long as the ST
    response, drawn on ``spawn(2)``.
    """
    if trials < 100:
        raise ConfigError(f"need at least 100 trials for a meaningful estimate, got {trials}")
    if bits_per_game < 1:
        raise ConfigError(f"need at least one bit per game, got {bits_per_game}")
    _check_message_bits(bits_per_game, "bits_per_game")
    arrays = ARRAYS.get(cfg.system)
    st_hits = ct_hits = 0
    for t in range(trials):
        trial_rng = rng.spawn(t)
        st_rng, ct_rng = trial_rng.spawn(0), trial_rng.spawn(1)
        m = distinguisher.pick_message(bits_per_game, st_rng.spawn(1))
        stegotext = embed_message(cfg, make_fn(cfg, st_rng.spawn(0)), m, spec,
                                  st_rng.spawn(2))
        st_hits += distinguisher.decide(stegotext)
        distinguisher.pick_message(bits_per_game, ct_rng.spawn(1))  # CT ignores it
        covertext = ct_oracle(spec, arrays, len(stegotext), ct_rng.spawn(2))
        ct_hits += distinguisher.decide(covertext)
    p_st, p_ct = st_hits / trials, ct_hits / trials
    halfwidth = 1.96 * sqrt(p_st * (1 - p_st) / trials + p_ct * (1 - p_ct) / trials)
    return AdvantageEstimate(abs(p_st - p_ct), trials, halfwidth, p_st, p_ct)


# --- rate, capacity, reliability ---------------------------------------------

def transmission_rate(cfg: SystemConfig, spec: ChannelSpec, rng: RngState,
                      bits: int = 120) -> float:
    """Measured hiddentext bits per document, from one `reliability_estimate` trial."""
    stats = reliability_estimate(cfg, spec, bits, 1, rng).stats
    return stats.bits_embedded / stats.docs_emitted


def capacity(p: float) -> float:
    """Shannon capacity 1 - H(p) of a binary symmetric channel."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"crossover probability must be in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 1.0
    return 1.0 + p * log2(p) + (1.0 - p) * log2(1.0 - p)


class TrialRow(NamedTuple):
    """One round trip: its errors, its embed work and its wall time."""

    bit_errors: int
    failed: int
    samples_drawn: int
    docs_emitted: int
    wall_s: float


class ReliabilityReport(NamedTuple):
    trials: int
    bits_per_trial: int
    failed_trials: int
    bit_errors: int
    stats: EmbedStats
    rows: tuple[TrialRow, ...]

    @property
    def message_failure_rate(self) -> float:
        return self.failed_trials / self.trials

    @property
    def bit_error_rate(self) -> float:
        return self.bit_errors / (self.trials * self.bits_per_trial)


def _round_trip(cfg: SystemConfig, spec: ChannelSpec, bits: int, trial_rng: RngState,
                fn: BitFunction | None = None):
    """Embed then extract a random message of `bits` bits.

    Draws a fresh function on ``trial_rng.spawn(0)`` unless `fn` is given,
    the message on ``spawn(1)`` and the embedder's draws on ``spawn(2)``.
    Returns the message, the recovered bits, the embed stats and the embed
    and extract wall times.
    """
    if fn is None:
        fn = make_fn(cfg, trial_rng.spawn(0))
    msg = trial_rng.spawn(1).bits(bits)
    stats = EmbedStats()
    t0 = time.perf_counter()
    outputs = embed_message(cfg, fn, msg, spec, trial_rng.spawn(2), stats=stats)
    t1 = time.perf_counter()
    recovered = extract_message(cfg, fn, outputs)
    return msg, recovered, stats, t1 - t0, time.perf_counter() - t1


def reliability_estimate(cfg: SystemConfig, spec: ChannelSpec, bits: int,
                         trials: int, rng: RngState,
                         fn: BitFunction | None = None) -> ReliabilityReport:
    """Embed/extract round trips on random messages, one row per trial.

    Each trial draws a fresh function per `cfg` unless `fn` is given.  The
    garbage collector is paused over the trials, as in ``benchmark_scaling``.
    """
    if bits < 1 or trials < 1:
        raise ConfigError(f"need at least one bit and one trial, got bits={bits}, "
                          f"trials={trials}")
    _check_message_bits(bits, "bits")
    total = EmbedStats()
    rows = []
    with _gc_paused():
        for t in range(trials):
            msg, recovered, stats, embed_s, extract_s = _round_trip(
                cfg, spec, bits, rng.spawn(t), fn)
            errors = sum(map(ne, msg, recovered))
            failed = int(bool(errors) or len(recovered) != len(msg))
            rows.append(TrialRow(errors, failed, stats.samples_drawn,
                                 stats.docs_emitted, embed_s + extract_s))
            total.add(stats.samples_drawn, stats.bits_embedded, stats.docs_emitted,
                      stats.prf_evals)
    return ReliabilityReport(trials, bits, sum(r.failed for r in rows),
                             sum(r.bit_errors for r in rows), total, tuple(rows))


@contextmanager
def _gc_paused():
    """Pause the cyclic GC for the body, then restore the state it found.

    A run's records (documents, mails, traces) form no reference cycles,
    so a collection frees none of them and only rescans them all.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# --- scaling benchmark ---------------------------------------------------------

class BenchRow(NamedTuple):
    system: str
    bits: int
    embed_seconds: float
    extract_seconds: float
    samples_drawn: int
    docs_emitted: int
    prf_evals: int


class BenchReport(NamedTuple):
    rows: list[BenchRow]
    embed_slope: float
    extract_slope: float


def benchmark_scaling(cfg: SystemConfig, spec: ChannelSpec,
                      lengths: Sequence[int], rng: RngState,
                      repeats: int = 3) -> BenchReport:
    """Time embed and extract across message lengths; fit log-log slopes.

    Each length is timed `repeats` times with fresh state and the minimum
    is kept (least scheduler noise).  One timed sample re-runs its trial,
    on the same stream, until the runs cover ``_MIN_SAMPLE_S`` and
    divides by their number, so a short message is not timed by one
    clock read.  The lengths are interleaved across repeats, so drift
    does not tilt the fit, and the garbage collector is off while timing.
    A slope of 1 on the log-log fit is linear scaling, so at least two
    distinct lengths are needed.
    """
    if repeats < 1 or len(set(lengths)) < 2 or min(lengths) < 1:
        raise ConfigError(f"need repeats >= 1 and two or more distinct lengths >= 1, "
                          f"got repeats={repeats}, lengths={list(lengths)}")
    _check_message_bits(max(lengths), "max(lengths)")
    best_embed = [float("inf")] * len(lengths)
    best_extract = best_embed.copy()
    last_stats: list[EmbedStats | None] = [None] * len(lengths)
    with _gc_paused():
        for rep in range(repeats):
            for idx, bits in enumerate(lengths):
                trial_rng = rng.spawn(idx).spawn(rep)
                runs = 0
                embed_s = extract_s = 0.0
                while embed_s + extract_s < _MIN_SAMPLE_S:
                    msg, recovered, stats, t_embed, t_extract = _round_trip(
                        cfg, spec, bits, trial_rng)
                    if recovered != msg and cfg.system in ARRAYS:
                        raise ProtocolError("round trip failed during benchmark")
                    runs += 1
                    embed_s += t_embed
                    extract_s += t_extract
                best_embed[idx] = min(best_embed[idx], embed_s / runs)
                best_extract[idx] = min(best_extract[idx], extract_s / runs)
                last_stats[idx] = stats
    rows = [BenchRow(cfg.system, bits, embed_s, extract_s, stats.samples_drawn,
                     stats.docs_emitted, stats.prf_evals)
            for bits, embed_s, extract_s, stats
            in zip(lengths, best_embed, best_extract, last_stats)]
    log_n = [log2(row.bits) for row in rows]
    embed_slope = linear_regression(log_n, [log2(row.embed_seconds) for row in rows]).slope
    extract_slope = linear_regression(log_n, [log2(row.extract_seconds) for row in rows]).slope
    return BenchReport(rows, embed_slope, extract_slope)
