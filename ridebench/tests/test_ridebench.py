"""Tests of the benchmark itself, at toy size (a few seconds in all).

Run from the repository root: python3 -m pytest ridebench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ridebench import harness, oracle, reference
from ridebench.tracing import PER_LAYER
from ridebench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(name: str, trace: bool, tmp_path: Path, seed: int = 5):
    return harness.run(WORKLOADS[name].tiny(), seed, 0.0, trace, tmp_path, ROOT)


def test_contract_names_every_workload_and_metric():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in CONTRACT["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric_with_its_unit(name, trace, tmp_path):
    result, report = tiny_run(name, trace, tmp_path)
    assert result["correct"], report["errors"]
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = CONTRACT["per_layer"] if trace else CONTRACT["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert report["provenance"]["config"]["n_offers"] == WORKLOADS[name].tiny().n_offers
    if trace:
        assert (tmp_path / f"{name}-seed5.spans.jsonl").stat().st_size > 0
        assert result["metrics"]["trace.coverage"]["value"] >= harness.MIN_COVERAGE


@pytest.mark.parametrize("name", ["direct-crowd", "transfer-city"])
def test_same_seed_repeats_digest_and_wire_bytes(name, tmp_path):
    first = tiny_run(name, False, tmp_path)
    second = tiny_run(name, False, tmp_path)
    assert first[1]["digest"] == second[1]["digest"]
    for metric in ("offer_wire_bytes", "request_wire_bytes", "bundle_wire_bytes", "served_fraction"):
        assert first[0]["metrics"][metric] == second[0]["metrics"][metric]


def one_pass(name: str):
    spec = WORKLOADS[name].tiny()
    wl = spec.trips(5)
    ref = reference.Reference()
    session = harness.Session(spec, 5)
    try:
        loop = harness.ClosedLoop(spec, session, ref)
        loop.register()
        loop.warm_up()
        log = loop.run_pass(harness.Stats(), wl)
    finally:
        session.close()
        ref.close()
    assert oracle.check_pass(spec, wl, log) == []
    return spec, wl, log


def matched_round(log):
    return next(rnd for rnd in log.rounds if rnd.matches)


def test_oracle_rejects_corrupted_direct_matches():
    spec, wl, log = one_pass("direct-crowd")
    rnd = matched_round(log)
    request, offer, case = rnd.matches[0]
    other = next(o for o in rnd.offers + log.rounds[0].offers if o != offer)
    rnd.matches[0] = (request, other, case)
    assert oracle.check_direct(spec, wl, log)
    rnd.matches[0] = (request, offer, "extended" if case != "extended" else "area")
    assert oracle.check_direct(spec, wl, log)
    rnd.matches[0] = (request, offer, case)
    dropped = rnd.matches.pop(0)
    assert oracle.check_direct(spec, wl, log)
    rnd.matches.insert(0, dropped)
    assert oracle.check_pass(spec, wl, log) == []


def test_oracle_rejects_corrupted_transfer_paths():
    spec, wl, log = one_pass("transfer-city")
    rnd = matched_round(log)
    request, path, cells = rnd.matches[0]
    rnd.matches[0] = (request, path, cells + 1)
    assert oracle.check_transfer(spec, wl, log)
    rnd.matches[0] = (request, path[:-1] or path, cells)
    assert oracle.check_transfer(spec, wl, log)
    rnd.matches[0] = (request, path, cells)
    dropped = rnd.matches.pop(0)
    assert oracle.check_transfer(spec, wl, log)
    rnd.matches.insert(0, dropped)
    rnd.notes.pop()
    assert oracle.check_notifications(spec, log)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "ridebench", tmp_path / "ridebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "ridebench/run.py", "--workload", "direct-crowd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
