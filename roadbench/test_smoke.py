"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest roadbench/test_smoke.py -q

Checks that each workload runs and passes its checks at a tiny size, that
the result object carries exactly the metrics and units BENCHMARK.json
lists, that the report names every end-to-end metric, and that the
benchmark refuses to run without the roadrec sources.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REPORTED = ("setup_s", "wall_s", "infinite_s", "oracle_s", "sweep_s", "two_stage_s",
            "simulate_s", "call_p90_s", "fail_frac", "peak_rss_mb")


@pytest.fixture(scope="module", autouse=True)
def checkout():
    run.check_checkout()


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    result, lines = run.run(workload, seed=5, seconds=0.0, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    reported = {line.split()[0] for line in lines[2:]}
    assert set(REPORTED) <= reported


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", "_work", "traces"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "solve-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
