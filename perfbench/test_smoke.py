"""The benchmark's own tests: every workload at smoke size, every check on.

    python3 -m pytest perfbench/test_smoke.py -q

They take about a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1  # the first smoke ops of every workload are feasible on this seed

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import workloads  # noqa: E402


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=175,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", str(SEED),
                 "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_a_result_when_the_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "fit5-n100k", "--seed", "0",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_comparison_flags_a_changed_value():
    ref = {"z1": [0.5, 12.0], "z2": [-0.25, None]}
    assert workloads.compare(ref, ref, "ref") == []
    assert workloads.compare({"z1": [0.5, 12.0], "z2": [-0.25, 1.0]}, ref, "ref")
    assert workloads.compare({"z1": [0.5 + 1e-5, 12.0], "z2": [-0.25, None]}, ref, "ref")
    assert workloads.compare({"z1": [0.5, 12.0]}, ref, "ref")
