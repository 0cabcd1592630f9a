"""Checks of the benchmark itself: exact op counts, metric names, set-up guard.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``
(about a minute on a two-core machine).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, seed: int = 5, seconds: int = 1, cwd: Path = ROOT):
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return out


def result(out) -> dict:
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


def units(res: dict) -> dict:
    return {name: m["unit"] for name, m in res["metrics"].items()}


def test_untraced_run_reports_every_end_to_end_metric():
    res = result(run("small_mixed", trace=0))
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", ["small_mixed", "srg_reject"])
def test_traced_counts_repeat_exactly_for_one_seed(workload):
    first, second = (result(run(workload, trace=1)) for _ in range(2))
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [name for name, unit in units(first).items() if unit in ("count", "ratio")]
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    if workload == "srg_reject":
        assert first["metrics"]["solver.backtracks_per_pair"]["value"] > 0

    # The layers' self times and the search bookkeeping make up the solve.
    m = {name: v["value"] for name, v in first["metrics"].items()}
    parts = sum(v for name, v in m.items() if name.endswith("self_s"))
    assert parts == pytest.approx(m["trace.solve_s"], rel=0.01)


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    out = run("small_mixed", trace=0, cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
