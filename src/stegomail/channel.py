"""History-conditioned cover-document distributions.

A channel maps a history (the documents already sent) to a probability
distribution over the next document.  Both supported kinds are of order
at most 1, so the history enters only through the last document's id,
``None`` before the first draw:

* ``stationary`` — one fixed probability vector, history ignored;
* ``markov1``    — a row-stochastic transition matrix conditioned on the
  previous document id, with a separate vector for the first draw.

Both give the exact conditional distribution (``ChannelSpec.row``), which
the goodness-of-fit test reads, and exact min-entropy.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import isfinite, log2

from .errors import ConfigError
from .rng import RngState

SUM_TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True, init=False)
class Document:
    """One cover document, identified by its index in the channel alphabet."""

    id: int

    # Written by hand because one Document is built per channel draw, and
    # the generated frozen __init__ plus a __post_init__ is markedly slower.
    # The id is stored through the slot descriptor, bound once below,
    # which is what the generated one does through object.__setattr__.
    def __init__(self, id: int) -> None:
        # The 8-byte id every PRF input encodes; type first, so that a
        # float or a string never reaches the comparison.
        if type(id) is not int or not 0 <= id < 1 << 64:
            raise ConfigError(
                f"document id must be an int, not {type(id).__name__}"
                if type(id) is not int else f"negative document id {id}" if id < 0
                else f"document id {id} does not fit in 8 bytes")
        _set_doc_id(self, id)

    def to_bytes(self) -> bytes:
        """Canonical injective encoding: the 8-byte big-endian id."""
        return self.id.to_bytes(8, "big")


_set_doc_id = Document.id.__set__


def _check_vector(vec, size: int, label: str) -> tuple[float, ...]:
    try:
        raw = tuple(vec)
        probs = tuple(map(float, raw))
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{label} must be a list of numbers: {e}") from e
    if bool in set(map(type, raw)):
        raise ConfigError(f"{label} must be a list of numbers, not booleans")
    if len(probs) != size:
        raise ConfigError(f"{label} has length {len(probs)}, expected {size}")
    if not all(isfinite(p) for p in probs):
        raise ConfigError(f"{label} contains a non-finite probability")
    if any(p < 0 for p in probs):
        raise ConfigError(f"{label} contains a negative probability")
    total = sum(probs)
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise ConfigError(f"{label} sums to {total!r}, not 1 within {SUM_TOLERANCE}")
    return probs


def _pinned_cdf(probs: tuple[float, ...]) -> list[float]:
    """Cumulative sums, pinned to 1.0 from the last positive entry on.

    A vector that sums to 1 only within tolerance leaves the final sum a
    little below 1, and a draw u in that gap would land one past the
    alphabet.  Pinning changes no draw that lands inside it.
    """
    cum = list(accumulate(probs))
    last = len(probs) - 1
    while probs[last] <= 0:
        last -= 1
    cum[last:] = [1.0] * (len(cum) - last)
    return cum


class ChannelSpec:
    """Validated, immutable channel definition with precomputed CDFs."""

    # A draw reads ``_cum`` (stationary) or ``_cum_rows[prev_id]`` (markov1,
    # where the key None holds the initial vector's CDF): one subscript, no
    # method frame.
    __slots__ = ("kind", "alphabet_size", "probs", "matrix", "initial",
                 "_cum", "_cum_rows")

    def __init__(self, kind: str, alphabet_size: int, probs=None,
                 matrix=None, initial=None) -> None:
        if alphabet_size < 1:
            raise ConfigError(f"alphabet_size must be positive, got {alphabet_size}")
        self.kind = kind
        self.alphabet_size = alphabet_size
        if kind == "stationary":
            if probs is None:
                raise ConfigError("stationary channel needs a probability vector")
            self.probs = _check_vector(probs, alphabet_size, "probs")
            self.matrix = None
            self.initial = None
            self._cum = _pinned_cdf(self.probs)
            self._cum_rows = None
        elif kind == "markov1":
            if matrix is None or initial is None:
                raise ConfigError("markov1 channel needs a matrix and an initial vector")
            try:
                rows = len(matrix)
            except TypeError as e:
                raise ConfigError(f"matrix must be a list of rows: {e}") from e
            if rows != alphabet_size:
                raise ConfigError(f"matrix has {rows} rows, expected {alphabet_size}")
            self.probs = None
            self.matrix = tuple(
                _check_vector(row, alphabet_size, f"matrix row {i}")
                for i, row in enumerate(matrix))
            self.initial = _check_vector(initial, alphabet_size, "initial")
            self._cum = None
            self._cum_rows = {None: _pinned_cdf(self.initial)}
            self._cum_rows.update(enumerate(map(_pinned_cdf, self.matrix)))
        else:
            raise ConfigError(f"unknown channel kind {kind!r}")

    @classmethod
    def stationary(cls, probs) -> "ChannelSpec":
        probs = tuple(probs)
        return cls("stationary", len(probs), probs=probs)

    @classmethod
    def uniform(cls, n: int) -> "ChannelSpec":
        if n < 1:
            raise ConfigError(f"alphabet_size must be positive, got {n}")
        return cls.stationary([1.0 / n] * n)

    @classmethod
    def point_mass(cls, n: int, target: int = 0) -> "ChannelSpec":
        if n < 1:
            raise ConfigError(f"alphabet_size must be positive, got {n}")
        if not 0 <= target < n:
            raise ConfigError(f"target {target} is outside the alphabet [0, {n})")
        return cls.stationary([1.0 if i == target else 0.0 for i in range(n)])

    @classmethod
    def markov1(cls, matrix, initial) -> "ChannelSpec":
        rows = tuple(matrix)
        return cls("markov1", len(rows), matrix=rows, initial=initial)

    def row(self, prev_id: int | None) -> tuple[float, ...]:
        """Conditional distribution given the id of the last sent document.

        `prev_id` must be None or an id of the alphabet, else ConfigError;
        the embedders call this once to check their `prev` before drawing.
        """
        if prev_id is not None and (type(prev_id) is not int
                                    or not 0 <= prev_id < self.alphabet_size):
            raise ConfigError(f"previous document id must be None or an int in "
                              f"[0, {self.alphabet_size}), got {prev_id!r}")
        if self.kind == "stationary":
            return self.probs
        if prev_id is None:
            return self.initial
        return self.matrix[prev_id]

    def __repr__(self) -> str:
        return f"ChannelSpec(kind={self.kind!r}, alphabet_size={self.alphabet_size})"


def sample_id(spec: ChannelSpec, prev_id: int | None, rng: RngState) -> int:
    """Draw a document id by inverse CDF, conditioned on the previous id."""
    return bisect_right(spec._cum or spec._cum_rows[prev_id], rng.random())


def min_entropy(spec: ChannelSpec) -> float:
    """-log2 of the most probable first document, in bits."""
    return -log2(max(spec.row(None)))


def load_channel_spec(text: str) -> ChannelSpec:
    """Parse a JSON channel description.

    Expected fields: ``kind`` ("stationary" | "markov1"), ``alphabet_size``,
    and either ``probs`` (vector) or ``matrix`` (rows) plus ``initial``
    (vector).  Probabilities may be decimal strings or plain numbers.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:
        # ValueError: malformed JSON, or an integer past Python's digit limit.
        raise ConfigError(f"channel spec is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("channel spec must be a JSON object")
    try:
        kind = data["kind"]
        raw_size = data["alphabet_size"]
    except KeyError as e:
        raise ConfigError(f"channel spec missing field {e.args[0]!r}") from e
    # int() would accept true as 1 and truncate 1.9 to 1.
    if isinstance(raw_size, bool) or (isinstance(raw_size, float)
                                      and not raw_size.is_integer()):
        raise ConfigError(f"alphabet_size must be an integer, got {raw_size!r}")
    try:
        alphabet_size = int(raw_size)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"alphabet_size must be an integer, got {raw_size!r}") from e
    # ChannelSpec takes any sequence, but a JSON string or object is not a
    # vector: its characters or keys would be read as probabilities.
    for field in ("probs", "initial", "matrix"):
        if field in data and not isinstance(data[field], list):
            raise ConfigError(f"{field} must be a JSON array")
    for i, row in enumerate(data.get("matrix", ())):
        if not isinstance(row, list):
            raise ConfigError(f"matrix row {i} must be a JSON array")
    return ChannelSpec(
        kind,
        alphabet_size,
        probs=data.get("probs"),
        matrix=data.get("matrix"),
        initial=data.get("initial"),
    )


def load_channel_file(path) -> ChannelSpec:
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise ConfigError(f"channel file {path} is not UTF-8 text: {e}") from e
    return load_channel_spec(text)

