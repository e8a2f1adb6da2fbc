"""Run every workload over several seeds and write a summary of the results.

    python3 roadbench/record.py --seeds 1-10 --seconds 30 --out roadbench/baseline.json

Each (workload, seed) is one untraced run of run.py in its own process, as
the benchmark is meant to be driven; one traced run per workload, on the
first seed, adds the per-layer metrics. For each end-to-end metric the
summary gives the values in seed order, their median and quartiles, and the
spread: the distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def host() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "system": platform.platform()}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(p) for p in text.split("-"))
        return list(range(first, last + 1))
    return [int(p) for p in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="'first-last' or a comma list")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    doc = {"host": host(), "seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for name in workloads.WORKLOADS:
        results = []
        for seed in seeds:
            results.append(run_once(name, seed, args.seconds, 0))
            print(name, seed, json.dumps(results[-1]), flush=True)
        traced = run_once(name, seeds[0], args.seconds, 1)
        doc["workloads"][name] = {
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {metric: summary([r["metrics"][metric]["value"] for r in results])
                           for metric in results[0]["metrics"]},
            "per_layer": {metric: v["value"] for metric, v in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
