"""Compare two checkouts on the repository benchmark in alternating pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME[,NAME...] \
        --seeds 701-710 --seconds 22 [--out runs.json]

Each checkout is a full copy of the repository (for the parent, e.g.
`git archive <sha> | tar -x -C DIR`). `--workload` takes one workload or
a comma-separated list, which runs one workload after the other. For
every workload and seed the tool runs
`python3 ridebench/run.py --workload NAME --seed N --seconds S --trace 0`
in both, alternating which side runs first, one run at a time. The
end-to-end metrics, which way is better and their regression bounds are
read from the change checkout's BENCHMARK.json.

Per workload and metric it prints both sides' medians and quartiles, the pairs the
change won (ties count for neither side) and a verdict:

* `gain`: the change won at least nine tenths of the pairs and the
  medians differ, in its favour, by more than the parent's interquartile
  range.
* `worse`: the change's median is worse than the parent's by more than
  the metric's bound (a fraction of the parent's median).
* `unresolved`: one side's interquartile range, as a fraction of its
  median, is wider than the bound, and not every change run beats every
  parent run.
* `within bound`: none of the above.
* `invalid`: a run on either side reads a non-finite value (NaN or
  infinity), so no comparison holds.

It also prints each side's share of failed operations: the runs'
`failed` over their `attempted`, summed over the workload's seeds.
`--out` writes every run's result as JSON, keyed by workload and side.

The exit code is 1 when, on any workload, a seed's match digests differ
between the sides, a run is not correct, the change's share of failed
operations is larger than the parent's, an end-to-end metric reads
`worse` or `invalid`, or a run reads none at all for a metric that
BENCHMARK.json names, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _relative_spread(q1: float, median: float, q3: float) -> float:
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    """Verdict for one metric over paired runs, and the pairs the change won.

    `parent[i]` and `change[i]` come from the same seed; `better` is
    "lower" or "higher"; `bound` is the worsening allowed, as a fraction
    of the parent's median.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs on each side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if not all(math.isfinite(v) for v in parent + change):
        return "invalid", 0
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) < 0 is a win
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    gain = sign * (c_med - p_med)  # negative when the change is better
    if 10 * wins >= 9 * len(parent) and -gain > p3 - p1:
        return "gain", wins
    if gain > bound * abs(p_med):
        return "worse", wins
    spread = max(_relative_spread(p1, p_med, p3), _relative_spread(c1, c_med, c3))
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins
    return "within bound", wins


def parse_seeds(text: str) -> list[int]:
    """'701-710' or '701,703,705' -> seeds."""
    if "-" in text:
        first, last = (int(x) for x in text.split("-", 1))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def parse_workloads(text: str) -> list[str]:
    """'direct-wide' or 'direct-wide,transfer-city' -> workload names, in order."""
    names = [name.strip() for name in text.split(",")]
    if not all(names) or len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"need distinct, non-empty workload names, got {text!r}")
    return names


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout `root`: its result, digest, provenance and exit code."""
    cmd = [sys.executable, "ridebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    summary = next((json.loads(l[8:]) for l in lines if l.startswith("summary ")), {})
    provenance = next((json.loads(l[11:]) for l in lines if l.startswith("provenance ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "failed": None, "metrics": {}}
    return {"returncode": proc.returncode, "digest": summary.get("digest"), "provenance": provenance,
            "stderr": proc.stderr[-2000:], **result}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", type=parse_workloads, required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, help="write every run's result here as JSON")
    return parser.parse_args(argv)


def compare(args: argparse.Namespace, contract: dict, workload: str) -> tuple[bool, dict]:
    """Run one workload's pairs and print its table; returns (checks passed, runs)."""
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    ok = True
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(sides[side], workload, seed, args.seconds)
            runs[side].append({"seed": seed, **run})
            print(f"seed {seed} {side:6} correct={run['correct']} failed={run['failed']} "
                  f"digest={str(run['digest'])[:16]}", flush=True)
            if not run["correct"]:
                ok = False
                print(run["stderr"], file=sys.stderr)
        if runs["parent"][-1]["digest"] != runs["change"][-1]["digest"]:
            ok = False
            print(f"seed {seed}: match digests differ", flush=True)

    shares = {}
    for side, side_runs in runs.items():
        failed = sum(r.get("failed") or 0 for r in side_runs)
        attempted = sum(r.get("attempted") or 0 for r in side_runs)
        shares[side] = failed / attempted if attempted else 0.0
        print(f"{side:6} failed {failed} of {attempted} operations ({shares[side]:.4%})")
    if shares["change"] > shares["parent"]:
        ok = False
        print("the change fails a larger share of operations", flush=True)

    print(f"\n{workload}: {len(args.seeds)} pairs, parent -> change, median [quartiles]")
    for metric in contract["end_to_end"]:
        name = metric["name"]
        try:
            parent = [r["metrics"][name]["value"] for r in runs["parent"]]
            change = [r["metrics"][name]["value"] for r in runs["change"]]
        except KeyError:
            ok = False
            print(f"{name:24} missing from a run")
            continue
        result, wins = verdict(parent, change, metric["better"], metric["bound"])
        if result in ("worse", "invalid"):
            ok = False
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        print(f"{name:24} {pm:.5g} [{p1:.5g}, {p3:.5g}] -> {cm:.5g} [{c1:.5g}, {c3:.5g}] "
              f"{metric['unit']:4} wins {wins}/{len(parent)}  {result}", flush=True)
    return ok, runs


def main(argv=None) -> int:
    args = parse_args(argv)
    contract = json.loads((args.change / "BENCHMARK.json").read_text())
    ok, runs = True, {}
    for workload in args.workload:
        passed, runs[workload] = compare(args, contract, workload)
        ok = ok and passed
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
