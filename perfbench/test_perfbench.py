"""Self-tests of the benchmark: tiny runs of every workload emit every
metric with its unit, a corrupted result is counted as failed, traced
counters repeat exactly, and a tree without the package is refused.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=HERE.parent, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "0.2", "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    proc = bench("--workload", workload, "--trace", "0")
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in run.END_TO_END_UNITS.items():  # all six, failed_ratio included
        assert any(line.split()[1:2] == [name] and f" {unit}" in line for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_metrics_emitted(workload):
    result = last_json(bench("--workload", workload, "--trace", "1"))
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        if unit in ("ms", "1/s"):
            assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_result_counts_as_failed(workload):
    proc = bench("--workload", workload, "--trace", "0", "--inject-corruption")
    result = last_json(proc)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] >= 2
    line = next(l for l in proc.stdout.splitlines() if " failed_ratio " in l)
    assert float(line.split()[2]) == pytest.approx(1 / result["attempted"])
    assert "CheckFailed:" in line


def test_traced_counters_repeat_exactly():
    runs = [last_json(bench("--workload", "solve-sweep", "--trace", "1"))["metrics"] for _ in range(2)]
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] in ("count", "unitless")} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["coupling.eigh_calls"] > 0 and counts[0]["coupling.linprog_calls"] > 0


def test_refuses_tree_without_package():
    bare = HERE.parent / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = bench("--workload", "cli-cold", cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile_is_fixed_by_design():
    value, pct, n = run.tail(list(range(1, 41)), 40)
    assert (pct, n) == (75.0, 40) and value == pytest.approx(30.25)
    assert run.tail(list(range(1, 41)) * 2, 40)[0] == pytest.approx(30.25)
    assert run.tail([3.0, 1.0, 2.0], 2) == (3.0, 100.0, 3)


def test_importtime_attribution():
    sample = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       pickle",
            "import time:       400 |        500 |     numpy.core",
            "import time:       300 |        800 |   numpy",
            "import time:       700 |        700 |   scipy.linalg",
            "import time:        50 |       1550 | infocoupling",
            "import time:        20 |         20 | encodings",
        ]
    )
    assert run.parse_importtime(sample) == pytest.approx({"numpy": 0.8, "scipy": 0.7, "infocoupling": 0.05})
