"""Record the repository benchmark's end-to-end metrics as BENCH_<workload>.json.

    python3 tools/bench_record.py

For every workload BENCHMARK.json lists and each seed N of SEEDS (701 to
705) it runs `python3 ridebench/run.py --workload NAME --seed N --seconds S
--trace 0` in this checkout, one run at a time, with S the `run_seconds` of
BENCHMARK.json (`bench_pairs.run_once`). It then writes
`BENCH_<workload>.json` at the repository root, holding per end-to-end
metric of BENCHMARK.json the median and quartiles over the seeds
(`bench_pairs.quartiles`), the commit measured (`git rev-parse HEAD`, with
`-dirty` when a tracked file differs from it), `nproc` and the provenance
line each run printed.

A record stands for correct runs only: if any run is not correct, fails an
operation or reads no value for a metric, no file is written and the exit
code is 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import bench_pairs

ROOT = Path(__file__).resolve().parents[1]
# The seeds of every record, so records of different commits compare.
SEEDS = list(range(701, 706))


def commit(root: Path) -> str:
    """HEAD of the checkout at `root`, with `-dirty` when a tracked file differs from it."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, check=True).stdout.strip()
    changed = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
                             capture_output=True, text=True, check=True).stdout.strip()
    return head + "-dirty" if changed else head


def record(runs: list[dict], contract: dict) -> dict:
    """Median and quartiles over `runs` of each end-to-end metric of `contract`."""
    metrics = {}
    for metric in contract["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        q1, median, q3 = bench_pairs.quartiles(values)
        metrics[metric["name"]] = {"unit": metric["unit"], "better": metric["better"],
                                   "median": median, "q1": q1, "q3": q3}
    return metrics


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = contract["run_seconds"]
    sha = commit(ROOT)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    records, ok = {}, True
    for workload in (w["name"] for w in contract["workloads"]):
        runs = []
        for seed in SEEDS:
            run = bench_pairs.run_once(ROOT, workload, seed, seconds)
            runs.append(run)
            print(f"{workload} seed {seed} correct={run['correct']} failed={run['failed']}", flush=True)
            if not run["correct"] or run["failed"] != 0:
                ok = False
                print(run["stderr"], file=sys.stderr)
        try:
            metrics = record(runs, contract)
        except KeyError as exc:
            print(f"{workload}: a run reads no {exc.args[0]}", file=sys.stderr)
            ok = False
            continue
        records[workload] = {
            "workload": workload, "commit": sha, "nproc": nproc,
            "seeds": SEEDS, "seconds": seconds, "metrics": metrics,
            "provenance": [run["provenance"] for run in runs],
        }
    if not ok:
        print("no record written: a run was incorrect, failed an operation or missed a metric")
        return 1
    for workload, rec in records.items():
        path = ROOT / f"BENCH_{workload}.json"
        path.write_text(json.dumps(rec, indent=1) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
