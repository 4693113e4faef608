#!/usr/bin/env python3
"""stegomail benchmark: one workload per run, checked ops, JSON metrics.

Run from the repository root:

    python3 perfbench/run.py --workload email-roundtrip --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs a fixed number of ops (set by ``--seconds``) twice,
plain and then with every layer's public functions wrapped, and reports
the per-layer metrics.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable summary and the run's environment.  The exit
code is 0 only when every op passed its check.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
WORKLOAD_NAMES = ("email-roundtrip", "cli-trace", "warden-game", "prior-systems")
# Fresh interpreters timed per run for setup_s: this process plus children.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "op_cost_p50": "ref", "peak_rss_mb": "MB"}

# The reference mix: a fixed stdlib-only loop with the same kinds of work
# as the library (keyed BLAKE2b, inverse-CDF bisect on a 2^16-entry list,
# a growing dict, small tuples).  It is timed between rotation cycles, and
# op cost is reported in units of it, because on a shared machine the
# speed of the same code drifts by up to 2x within seconds.  One sample is
# the median of a few timings of the mix, since a single short timing can
# itself land on a spike.
REFERENCE_CDF = [k / 65536 for k in range(1, 65537)]
REFERENCE_ITERATIONS = 2500
REFERENCE_REPEATS = 5


def reference_mix_s() -> float:
    return statistics.median(_reference_mix_once() for _ in range(REFERENCE_REPEATS))


def _reference_mix_once() -> float:
    start = time.perf_counter()
    key = b"k" * 16
    rnd = random.Random(7)
    acc = 0
    table: dict[bytes, int] = {}
    items = []
    for k in range(REFERENCE_ITERATIONS):
        i = bisect.bisect_right(REFERENCE_CDF, rnd.random())
        data = b"F2" + k.to_bytes(8, "big") + i.to_bytes(8, "big")
        acc ^= hashlib.blake2b(data, digest_size=1, key=key).digest()[0]
        if table.get(data) is None:
            table[data] = rnd.getrandbits(1)
        items.append((i, data, str(i)))
    return time.perf_counter() - start


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def timed_setup(name: str, seed: int, workdir: Path):
    """Import stegomail, build the workload's inputs, make one warm-up op.

    Returns the workload, its state, the warm-up result, the set-up time
    and the import time.  Run first thing in a fresh interpreter.
    """
    start = time.perf_counter()
    import stegomail  # noqa: F401  (the import is what is timed)
    import workloads
    import_s = time.perf_counter() - start
    wl = workloads.WORKLOADS[name]
    state = wl.setup(seed, workdir)
    warm = run_op(wl, state, 0)
    return wl, state, warm, time.perf_counter() - start, import_s


def run_op(wl, state, i: int):
    """One op; an exception counts as a failed op and is reported."""
    from workloads import OpResult
    try:
        return wl.op(state, i)
    except Exception:  # an op that raises is a failed op, not a crashed run
        traceback.print_exc(file=sys.stderr)
        return OpResult(False)


def run_cycles(wl, state, first: int, *, ops: int | None = None,
               seconds: float | None = None, reference: bool = False):
    """Closed loop, one client: whole rotation cycles until `ops` or `seconds`.

    Returns [(op index, elapsed seconds, OpResult)], the wall time, and,
    with `reference`, the reference-mix times taken before the first
    cycle and after each cycle.
    """
    cycle = len(wl.kinds)
    records = []
    refs = [reference_mix_s()] if reference else []
    i = first
    start = time.perf_counter()
    while True:
        for _ in range(cycle):
            t0 = time.perf_counter()
            result = run_op(wl, state, i)
            records.append((i, time.perf_counter() - t0, result))
            i += 1
        if reference:
            refs.append(reference_mix_s())
        now = time.perf_counter()
        if (len(records) >= ops) if ops is not None else (now - start >= seconds):
            return records, now - start, refs


def cycle_means(values: list[float], cycle: int) -> list[float]:
    """Mean per-op value of each whole rotation cycle.

    Op kinds differ in cost, so a plain median over a mixed sequence can
    jump between kinds; each whole cycle holds one op of every kind.
    """
    return [statistics.fmean(values[k:k + cycle])
            for k in range(0, len(values) - cycle + 1, cycle)]


def cycle_median_ms(values: list[float], cycle: int) -> float:
    return 1000.0 * statistics.median(cycle_means(values, cycle))


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (git / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int, refs: list[float]) -> dict:
    import numpy
    import scipy
    import stegomail
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "git_sha": git_sha(), "stegomail": stegomail.__version__,
            "seed": seed, "reference_mix_s_median": statistics.median(refs),
            "reference_mix_s_range": [min(refs), max(refs)]}


def setup_probe(name: str, seed: int) -> None:
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        _, _, _, setup_s, import_s = timed_setup(name, seed, Path(tmp))
    print(json.dumps({"setup_s": setup_s, "import_s": import_s}))


def child_setup_samples(name: str, seed: int, n: int) -> list[float]:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
            "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(n):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"setup probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def untraced(wl, state, warm, seconds: float, setup_samples: list[float]):
    records, wall, refs = run_cycles(wl, state, 1, seconds=seconds, reference=True)
    cycle = len(wl.kinds)
    results = [warm] + [r for _, _, r in records]
    failed = max(sum(not r.ok for r in results), wl.pooled_failures(state, len(results)))
    elapsed = [e for _, e, _ in records]
    means = cycle_means(elapsed, cycle)
    costs = [m / ((refs[k] + refs[k + 1]) / 2) for k, m in enumerate(means)]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_cost_p50": statistics.median(costs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"ops={len(records)} cycles={len(means)} wall_s={wall!r}",
             f"failed_ratio={failed / len(results)!r}",
             f"ops_per_s={len(records) / wall!r} (wall clock, reference mix included)",
             f"op_ms_p50={1000.0 * statistics.median(means)!r} (wall clock)"]
    if len(means) >= 100:
        notes.append(f"op_ms_p90={1000.0 * statistics.quantiles(means, n=10)[-1]!r} "
                     f"op_cost_p90={statistics.quantiles(costs, n=10)[-1]!r}")
    sends = [r.send_s for _, _, r in records if r.send_s is not None]
    if sends:
        recvs = [r.recv_s for _, _, r in records]
        notes.append(f"send_ms_p50={cycle_median_ms(sends, cycle)!r} "
                     f"recv_ms_p50={cycle_median_ms(recvs, cycle)!r} (wall clock)")
    notes.append("setup_s samples=" + ",".join(f"{s!r}" for s in setup_samples))
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return len(results), failed, metrics, notes, refs


def traced(wl, state, warm, seed: int, seconds: float, import_s: float, workdir: Path):
    from tracer import Tracer
    cycle = len(wl.kinds)
    n_ops = cycle * max(1, round(seconds * wl.trace_ops_per_s / cycle))
    refs = [reference_mix_s()]
    plain, plain_wall, _ = run_cycles(wl, state, 1, ops=n_ops)
    tracer = Tracer()
    with tracer:
        traced_state = wl.setup(seed, workdir)
        records, traced_wall, _ = run_cycles(wl, traced_state, 1, ops=n_ops)
    refs.append(reference_mix_s())
    results = [warm] + [r for _, _, r in plain] + [r for _, _, r in records]
    problems = cross_check(tracer, [r for _, _, r in records])
    # A count mismatch puts every traced op in doubt.
    failed = max(sum(not r.ok for r in results),
                 wl.pooled_failures(state, n_ops + 1) + wl.pooled_failures(traced_state, n_ops),
                 n_ops if problems else 0)

    metrics = tracer.metrics()
    metrics["setup.import_s"] = (import_s, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    sends = [r.send_s for _, _, r in plain if r.send_s is not None]
    recvs = [r.recv_s for _, _, r in plain if r.recv_s is not None]
    metrics["cli.send_ms_p50"] = (cycle_median_ms(sends, cycle) if sends else 0.0, "ms")
    metrics["cli.recv_ms_p50"] = (cycle_median_ms(recvs, cycle) if recvs else 0.0, "ms")

    trace_file = WORK_DIR / f"trace-{wl.name}-{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": wl.name, "seed": seed, "ops": n_ops,
        "spans": [{"op": i, "kind": str(wl.kinds[i % cycle]), "elapsed_s": e}
                  for i, e, _ in records],
        "layers": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                   for k, v in tracer.agg.items()},
        "counts": dict(tracer.counts)}, indent=1))
    notes = [f"ops={n_ops} plain_wall_s={plain_wall!r} traced_wall_s={traced_wall!r}",
             f"spans -> {trace_file.relative_to(ROOT)}"] + problems
    return len(results), failed, metrics, notes, refs


def cross_check(tracer, results) -> list[str]:
    """The traced counts must equal what the library itself reported."""
    problems = []
    c = tracer.counts
    draws = [r.draws for r in results]
    if results and None not in draws:
        traced_draws = tracer.calls("channel.sample_id")
        if traced_draws != sum(draws):
            problems.append(f"count mismatch: channel.sample_id.calls={traced_draws} "
                            f"vs EmbedStats.samples_drawn={sum(draws)}")
    evals = [r.prf_evals for r in results]
    if results and None not in evals:
        traced_evals = c["baselines.embed.prf_evals"] + c["protocols.embed.prf_evals"]
        if traced_evals != sum(evals):
            problems.append(f"count mismatch: embed-side prf calls={traced_evals} "
                            f"vs EmbedStats.prf_evals={sum(evals)}")
    bits = c["protocols.bits_embedded"]
    if bits and not (c["protocols.embed.draws"] == c["protocols.embed.prf_evals"] == bits):
        problems.append(f"protocols: draws {c['protocols.embed.draws']}, prf evals "
                        f"{c['protocols.embed.prf_evals']}, bits {bits}; must be equal")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (SRC / "stegomail" / "__init__.py").is_file() or not (ROOT / "channels").is_dir():
        fail(f"no stegomail source tree (src/stegomail, channels/) under {ROOT}")
    sys.path.insert(0, str(SRC))
    WORK_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        workdir = Path(tmp)
        wl, state, warm, setup_s, import_s = timed_setup(args.workload, args.seed, workdir)
        if args.trace:
            attempted, failed, metrics, notes, refs = traced(
                wl, state, warm, args.seed, args.seconds, import_s, workdir)
        else:
            samples = [setup_s] + child_setup_samples(args.workload, args.seed,
                                                      SETUP_SAMPLES - 1)
            attempted, failed, metrics, notes, refs = untraced(
                wl, state, warm, args.seconds, samples)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed}")
    for note in notes:
        print("# " + note)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print("# env " + json.dumps(environment(args.seed, refs)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
