"""Benchmark entry point.

    python3 ridebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program under test is imported from
./src. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. A full report
(provenance, match digest, errors, traced table) and, when traced, the
spans file are written under ./.ridebench/. The exit code is 1 when
the outputs fail the correctness checks, 2 when the program cannot be
imported.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".ridebench"


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from ridebench import harness, tracing
        from ridebench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program under test from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = WORKLOADS[args.workload]
    try:
        result, report = harness.run(spec, args.seed, args.seconds, bool(args.trace), OUT_DIR, ROOT)
    except harness.BenchError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    if "table" in report:
        print(tracing.format_table(report["table"], report["traced_wall_s"]))
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{spec.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({**report, "result": result}, indent=1, default=str))
    summary = {k: report[k] for k in ("digest", "passes", "failed_ops", "setup_s")}
    print("provenance " + json.dumps(report["provenance"]))
    print("summary " + json.dumps(summary))
    for err in report["errors"][:10]:
        print(f"error: {err}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
