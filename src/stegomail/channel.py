"""History-conditioned cover-document distributions.

A channel maps a history (the documents already sent) to a probability
distribution over the next document.  Two kinds are supported:

* ``stationary`` — one fixed probability vector, history ignored;
* ``markov1``    — a row-stochastic transition matrix conditioned on the
  previous document id, with a separate vector for the first draw.

Both give exact ``prob()`` oracles, which the security experiments need
for goodness-of-fit testing, and exact min-entropy.
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


@dataclass(frozen=True, slots=True)
class Document:
    """One cover document, identified by its index in the channel alphabet."""

    id: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ConfigError(f"document id must be non-negative, got {self.id}")

    def to_bytes(self) -> bytes:
        """Canonical injective encoding: 8-byte big-endian id, then payload."""
        return self.id.to_bytes(8, "big") + self.payload


class History:
    """Append-only sequence of documents conditioning the channel."""

    __slots__ = ("_docs",)

    def __init__(self, docs=()) -> None:
        self._docs = list(docs)

    def append(self, doc: Document) -> None:
        self._docs.append(doc)

    def extend(self, docs) -> None:
        self._docs.extend(docs)

    @property
    def last(self) -> Document | None:
        return self._docs[-1] if self._docs else None

    def ids(self) -> list[int]:
        return [d.id for d in self._docs]

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self):
        return iter(self._docs)

    def __getitem__(self, i):
        return self._docs[i]

    def __repr__(self) -> str:
        return f"History({self.ids()!r})"


def _check_vector(vec, size: int, label: str) -> tuple[float, ...]:
    probs = tuple(float(p) for p in vec)
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

    __slots__ = ("kind", "alphabet_size", "probs", "matrix", "initial",
                 "_cum", "_cum_rows", "_cum_initial")

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
            self._cum_initial = None
        elif kind == "markov1":
            if matrix is None or initial is None:
                raise ConfigError("markov1 channel needs a matrix and an initial vector")
            if len(matrix) != alphabet_size:
                raise ConfigError(
                    f"matrix has {len(matrix)} rows, expected {alphabet_size}")
            self.probs = None
            self.matrix = tuple(
                _check_vector(row, alphabet_size, f"matrix row {i}")
                for i, row in enumerate(matrix))
            self.initial = _check_vector(initial, alphabet_size, "initial")
            self._cum = None
            self._cum_rows = [_pinned_cdf(row) for row in self.matrix]
            self._cum_initial = _pinned_cdf(self.initial)
        else:
            raise ConfigError(f"unknown channel kind {kind!r}")

    @classmethod
    def stationary(cls, probs) -> "ChannelSpec":
        probs = tuple(probs)
        return cls("stationary", len(probs), probs=probs)

    @classmethod
    def uniform(cls, n: int) -> "ChannelSpec":
        return cls.stationary([1.0 / n] * n)

    @classmethod
    def point_mass(cls, n: int, target: int = 0) -> "ChannelSpec":
        return cls.stationary([1.0 if i == target else 0.0 for i in range(n)])

    @classmethod
    def markov1(cls, matrix, initial) -> "ChannelSpec":
        return cls("markov1", len(tuple(matrix)), matrix=matrix, initial=initial)

    def row(self, prev_id: int | None) -> tuple[float, ...]:
        """Conditional distribution given the id of the last sent document."""
        if self.kind == "stationary":
            return self.probs
        if prev_id is None:
            return self.initial
        return self.matrix[prev_id]

    def _cdf(self, prev_id: int | None) -> list[float]:
        if self.kind == "stationary":
            return self._cum
        if prev_id is None:
            return self._cum_initial
        return self._cum_rows[prev_id]

    def __repr__(self) -> str:
        return f"ChannelSpec(kind={self.kind!r}, alphabet_size={self.alphabet_size})"


def sample_id(spec: ChannelSpec, prev_id: int | None, rng: RngState) -> int:
    """Draw a document id by inverse CDF, conditioned on the previous id."""
    return bisect_right(spec._cdf(prev_id), rng.random())


def sample(spec: ChannelSpec, h: History, rng: RngState) -> Document:
    """One draw from the channel given history `h`; `h` is not mutated."""
    last = h.last
    return Document(sample_id(spec, None if last is None else last.id, rng))


def prob(spec: ChannelSpec, h: History, d: Document) -> float:
    """Exact conditional probability of document `d` after history `h`."""
    if d.id >= spec.alphabet_size:
        raise ConfigError(
            f"document id {d.id} outside alphabet of size {spec.alphabet_size}")
    last = h.last
    return spec.row(None if last is None else last.id)[d.id]


def min_entropy(spec: ChannelSpec, h: History) -> float:
    """-log2 of the most probable document after history `h`, in bits."""
    last = h.last
    return -log2(max(spec.row(None if last is None else last.id)))


def load_channel_spec(text: str) -> ChannelSpec:
    """Parse a JSON channel description.

    Expected fields: ``kind`` ("stationary" | "markov1"), ``alphabet_size``,
    and either ``probs`` (vector) or ``matrix`` (rows) plus ``initial``
    (vector).  Probabilities may be decimal strings or plain numbers.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"channel spec is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("channel spec must be a JSON object")
    try:
        kind = data["kind"]
        alphabet_size = int(data["alphabet_size"])
    except KeyError as e:
        raise ConfigError(f"channel spec missing field {e.args[0]!r}") from e
    return ChannelSpec(
        kind,
        alphabet_size,
        probs=data.get("probs"),
        matrix=data.get("matrix"),
        initial=data.get("initial"),
    )


def load_channel_file(path) -> ChannelSpec:
    with open(path, encoding="utf-8") as f:
        return load_channel_spec(f.read())


def dump_channel_spec(spec: ChannelSpec) -> str:
    """Serialize a ChannelSpec to the JSON file format (decimal strings)."""
    data: dict = {"kind": spec.kind, "alphabet_size": spec.alphabet_size}
    if spec.kind == "stationary":
        data["probs"] = [repr(p) for p in spec.probs]
    else:
        data["matrix"] = [[repr(p) for p in row] for row in spec.matrix]
        data["initial"] = [repr(p) for p in spec.initial]
    return json.dumps(data, indent=2)
