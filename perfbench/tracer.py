"""Per-layer tracing of stegomail from outside the package.

Nothing under ``src/`` changes.  ``Tracer.install`` rebinds each traced
function in every ``stegomail`` module namespace that holds it (modules
import each other's functions by name), replaces the traced methods on
their classes, and ``uninstall`` puts every original back.

The hot functions run millions of times per run, so a wrapper keeps only
per-name aggregates (calls, total time, self time); op-level spans are
kept by the runner.  A layer's self time is its time minus the time of
the traced calls made beneath it.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# Metric prefix -> the public functions and methods that make up the layer,
# as "module:qualified.name".  Helpers that only the listed functions call
# (s1_rs, p1_extract_one_bit, bits_from_bytes, ...) are left unwrapped so
# their time lands in the caller's self time without a second wrapper.
LAYERS = {
    "rng.spawn": ["rng:RngState.spawn"],
    "channel.sample_id": ["channel:sample_id"],
    "channel.document": ["channel:Document.__init__"],
    "channel.load": ["channel:load_channel_file"],
    "channel.build": ["channel:ChannelSpec.__init__"],
    "prf.eval_bit": ["prf:eval_bit"],
    "prf.eval_bit_sync": ["prf:eval_bit_sync"],
    "prf.eval_bit_tuple": ["prf:eval_bit_tuple"],
    "prf.keygen": ["prf:Key.generate"],
    "ecc.enc": ["ecc:enc"],
    "ecc.dec": ["ecc:dec"],
    "ecc.hex": ["ecc:bits_from_hex", "ecc:hex_from_bits"],
    "mail.mail": ["mail:Mail.__init__"],
    "mail.merge": ["mail:merge_by_date"],
    "mail.format": ["mail:write_trace", "mail:format_trace"],
    "mail.parse": ["mail:read_trace", "mail:parse_trace"],
    "baselines.embed": ["baselines:s1_embed", "baselines:s2_embed",
                        "baselines:s3_embed", "baselines:s4_embed"],
    "baselines.extract": ["baselines:s1_extract", "baselines:s2_extract",
                          "baselines:s3_extract", "baselines:s4_extract"],
    "protocols.embed": ["protocols:p1_embed", "protocols:p2_embed"],
    "protocols.extract": ["protocols:p1_extract", "protocols:p2_extract"],
    "security.reliability": ["security:reliability_estimate"],
    "security.game": ["security:run_game"],
    "security.gof": ["security:channel_goodness_of_fit"],
    "security.ct_oracle": ["security:ct_oracle"],
    "cli.command": ["cli:run"],
}

# Embed layers whose draws and PRF evaluations are tallied separately, so
# the traced counts can be compared with the EmbedStats the library returns.
EMBED_CONTEXTS = ("baselines.embed", "protocols.embed")
PRF_LAYERS = ("prf.eval_bit", "prf.eval_bit_sync", "prf.eval_bit_tuple")

# Targets whose result length is summed into a count.
RESULT_SIZES = {
    "mail:format_trace": "mail.trace_bytes",
    "baselines:s1_embed": "baselines.docs_emitted",
    "baselines:s2_embed": "baselines.docs_emitted",
    "baselines:s3_embed": "baselines.docs_emitted",
    "baselines:s4_embed": "baselines.docs_emitted",
    "protocols:p1_embed": "protocols.bits_embedded",
    "protocols:p2_embed": "protocols.bits_embedded",
}


def _ratio(num: int, den: int) -> float:
    """num / den, or 0.0 where the layer did no work on this workload."""
    return num / den if den else 0.0


class Tracer:
    """Wraps the LAYERS targets while installed and aggregates per name."""

    def __init__(self) -> None:
        self.agg = {name: [0, 0.0, 0.0] for name in LAYERS}  # calls, total, self
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._depth = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, size_key: str | None):
        rec = self.agg[name]
        stack = self._stack
        depth = self._depth
        counts = self.counts
        clock = time.perf_counter
        is_context = name in EMBED_CONTEXTS
        if name == "channel.sample_id":
            tallies = [(ctx, ctx + ".draws") for ctx in EMBED_CONTEXTS]
        elif name in PRF_LAYERS:
            tallies = [(ctx, ctx + ".prf_evals") for ctx in EMBED_CONTEXTS]
        else:
            tallies = []

        def wrapper(*args, **kwargs):
            for ctx, key in tallies:
                if depth[ctx]:
                    counts[key] += 1
            if is_context:
                depth[name] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if is_context:
                    depth[name] -= 1
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if size_key is not None:
                counts[size_key] += len(result)
            return result

        return wrapper

    def install(self) -> None:
        for name, targets in LAYERS.items():
            for target in targets:
                self._install_one(name, target)

    def _install_one(self, name: str, target: str) -> None:
        modname, qualname = target.split(":")
        module = importlib.import_module("stegomail." + modname)
        size_key = RESULT_SIZES.get(target)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(name, raw.__func__, size_key))
            else:
                patched = self._wrap(name, raw, size_key)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, patched)
            return
        original = getattr(module, qualname)
        patched = self._wrap(name, original, size_key)
        for modname_, mod in list(sys.modules.items()):
            if modname_ != "stegomail" and not modname_.startswith("stegomail."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, patched)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def calls(self, name: str) -> int:
        return self.agg[name][0]

    def self_s(self, name: str) -> float:
        return self.agg[name][2]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics this tracer measures, name -> (value, unit)."""
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        for name in ("rng.spawn", "channel.sample_id", "channel.document",
                     "prf.eval_bit", "prf.eval_bit_sync", "prf.eval_bit_tuple",
                     "prf.keygen", "mail.mail", "security.gof"):
            out[name + ".calls"] = (self.calls(name), "count")
        for name in LAYERS:
            out[name + ".self_s"] = (self.self_s(name), "s")
        out["mail.trace_bytes"] = (c["mail.trace_bytes"], "bytes")
        out["baselines.samples_drawn"] = (c["baselines.embed.draws"], "count")
        out["baselines.prf_evals"] = (c["baselines.embed.prf_evals"], "count")
        out["baselines.useful_ratio"] = (
            _ratio(c["baselines.docs_emitted"], c["baselines.embed.draws"]), "ratio")
        out["protocols.draws_per_bit"] = (
            _ratio(c["protocols.embed.draws"], c["protocols.bits_embedded"]),
            "draws/bit")
        return out
