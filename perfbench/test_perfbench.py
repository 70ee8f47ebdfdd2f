"""Tests of the benchmark itself (not collected by the package's test suite).

Run from the repository root with ``python -m pytest perfbench -q``.  The
repeat tests run each workload traced twice, so they take a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]


def run(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, *RUN, *args], cwd=cwd, text=True,
                          capture_output=True, timeout=600)
    return done


def result(*args):
    done = run(*args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_result_lines_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = result("--workload", "homology", "--seconds", "1", "--trace", str(trace))
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        assert {k: v["unit"] for k, v in out["metrics"].items()} == \
            {m["name"]: m["unit"] for m in bench[key]}


# Work counts that must repeat exactly between two traced runs at one seed.
def _counts(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] == "count/op" or (v["unit"] == "ratio"
                                           and k != "trace.overhead_ratio")}


@pytest.mark.parametrize("workload", ["homology", "image", "search"])
def test_traced_counts_repeat(workload):
    first = result("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    second = result("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", "1")
    assert first["correct"] and second["correct"]
    assert _counts(first["metrics"]) == _counts(second["metrics"])
    assert any(_counts(first["metrics"]).values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", "homology", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
