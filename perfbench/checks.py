"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest -q perfbench/checks.py``.
The file is not named ``test_*.py``, so the repository's test suite does
not collect it; these tests start benchmark processes and take about a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT,
          script: Path = BENCH_DIR / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads_the_runner_knows():
    assert WORKLOADS == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_untraced_run_reports_every_end_to_end_metric(workload):
    out = result(bench(workload, 3, 0))
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_the_same_seed(workload):
    first, second = result(bench(workload, 5, 1)), result(bench(workload, 5, 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    assert first["correct"] and second["correct"]
    exact = [k for k, u in expected.items() if u in ("count", "bytes", "draws/bit")]
    exact.append("baselines.useful_ratio")
    assert {k: first["metrics"][k]["value"] for k in exact} == \
           {k: second["metrics"][k]["value"] for k in exact}
    assert first["metrics"]["channel.sample_id.calls"]["value"] > 0


def flip_first_address(trace_path: Path) -> None:
    """Swap address1 and address2 on the first mail of a trace."""
    lines = trace_path.read_text().splitlines(keepends=True)
    tick, doc, addrs = lines[0].rstrip("\n").split("\t")
    swap = {"address1": "address2", "address2": "address1"}
    flipped = ",".join(swap[a] for a in addrs.split(","))
    if flipped == addrs:
        raise AssertionError("first mail's address array is symmetric")
    lines[0] = f"{tick}\t{doc}\t{flipped}\n"
    trace_path.write_text("".join(lines))


class TamperingCli:
    """The CLI module, except that every trace it embeds is corrupted."""

    def __init__(self, cli) -> None:
        self.cli = cli

    def run(self, argv: list[str]) -> int:
        code = self.cli.run(argv)
        if argv[0] == "embed":
            flip_first_address(Path(argv[argv.index("--out") + 1]))
        return code


def test_corrupted_trace_is_a_failed_op(tmp_path):
    wl = workloads.WORKLOADS["cli-trace"]
    state = wl.setup(7, tmp_path)
    clean, _, _ = run.run_cycles(wl, state, 1, ops=2)
    assert all(r.ok for _, _, r in clean)
    state.cli = TamperingCli(state.cli)
    records, _, _ = run.run_cycles(wl, state, 1, ops=2)
    assert [r.ok for _, _, r in records] == [False, False]  # one p1 op, one p2 op


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench(WORKLOADS[0], 1, 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
