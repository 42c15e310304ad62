"""The verdict rule of tools/bench_pairs.py, on synthetic numbers only."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # IQR 0.0375


def test_clear_gain_needs_nine_wins_in_ten():
    faster = [p - 0.3 for p in PARENT]
    assert verdict(PARENT, faster, "lower", 0.25) == ("gain", 10)
    one_loss = faster[:9] + [PARENT[9] + 0.01]
    assert verdict(PARENT, one_loss, "lower", 0.25) == ("gain", 9)
    two_losses = faster[:8] + [PARENT[8] + 0.01, PARENT[9] + 0.01]
    assert verdict(PARENT, two_losses, "lower", 0.25) == ("within bound", 8)


def test_ties_count_for_neither_side():
    faster = [p - 0.3 for p in PARENT[:8]] + PARENT[8:]
    assert verdict(PARENT, faster, "lower", 0.25) == ("within bound", 8)


def test_gain_must_exceed_the_parents_quartile_spread():
    # wins every pair, but by less than the parent's own IQR
    barely = [p - 0.01 for p in PARENT]
    assert verdict(PARENT, barely, "lower", 0.25) == ("within bound", 10)


def test_direction_follows_better():
    higher = [p + 0.3 for p in PARENT]
    assert verdict(PARENT, higher, "higher", 0.25) == ("gain", 10)
    assert verdict(PARENT, higher, "lower", 0.25) == ("worse", 0)
    lower = [p - 0.3 for p in PARENT]
    assert verdict(PARENT, lower, "higher", 0.25) == ("worse", 0)


def test_worse_only_beyond_the_bound():
    slower = [p * 1.2 for p in PARENT]
    assert verdict(PARENT, slower, "lower", 0.25) == ("within bound", 0)
    assert verdict(PARENT, slower, "lower", 0.1) == ("worse", 0)


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    noisy = [1.0, 2.0, 0.5, 1.5, 0.8, 1.2, 0.6, 1.8, 0.9, 1.1]
    assert verdict(noisy, list(noisy), "lower", 0.25) == ("unresolved", 0)
    # below every parent run, but by less than the parent's IQR: no gain,
    # yet not unresolved either
    wide = [1.0, 1.0, 1.0, 1.1, 1.5, 1.5, 1.9, 2.0, 2.0, 2.0]
    assert verdict(wide, [0.9] * 10, "lower", 0.25) == ("within bound", 10)
    # wins every pair, yet one change run reads above the parent's lowest
    assert verdict(wide, [0.9] * 9 + [1.05], "lower", 0.25) == ("unresolved", 10)


def test_constant_metrics_are_within_bound():
    wire = [6105.56] * 10
    assert verdict(wire, list(wire), "lower", 0.1) == ("within bound", 0)


def test_rejects_unpaired_runs_and_unknown_direction():
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT[:9], "lower", 0.25)
    with pytest.raises(ValueError):
        verdict([], [], "lower", 0.25)
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT, "faster", 0.25)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("701-705") == [701, 702, 703, 704, 705]
    assert bench_pairs.parse_seeds("701,703") == [701, 703]


def test_parse_workloads():
    base = ["--parent", "p", "--change", "c", "--seeds", "701-702", "--seconds", "1"]
    args = bench_pairs.parse_args(base + ["--workload", "direct-wide"])
    assert args.workload == ["direct-wide"]
    args = bench_pairs.parse_args(base + ["--workload", "direct-wide, direct-crowd,transfer-city"])
    assert args.workload == ["direct-wide", "direct-crowd", "transfer-city"]
    for bad in ("", "direct-wide,", "direct-wide,,transfer-city", "a,b,a"):
        with pytest.raises(SystemExit):
            bench_pairs.parse_args(base + ["--workload", bad])


def test_non_finite_values_are_invalid():
    nan, inf = float("nan"), float("inf")
    assert verdict(PARENT[:5], [nan] * 5, "higher", 0.25) == ("invalid", 0)
    assert verdict(PARENT[:5], PARENT[:4] + [nan], "lower", 0.25) == ("invalid", 0)
    assert verdict([nan] + PARENT[1:5], PARENT[:5], "lower", 0.25) == ("invalid", 0)
    assert verdict(PARENT[:5], PARENT[:4] + [inf], "lower", 0.25) == ("invalid", 0)
    assert verdict(PARENT[:5], PARENT[:4] + [-inf], "higher", 0.25) == ("invalid", 0)


def _contract_argv(tmp_path):
    contract = {"end_to_end": [
        {"name": "trips_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(contract))
    return ["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "w",
            "--seeds", "701,702", "--seconds", "1"]


def runs_reading(values, failed=None):
    """A stand-in for run_once whose runs read `values` for trips_per_s, None for no reading.

    Each run attempts 100 operations and fails the next of `failed` (none by default).
    """
    readings = iter(values)
    failures = iter(failed or [0] * len(values))

    def run(*args):
        value = next(readings)
        metrics = {} if value is None else {"trips_per_s": {"value": value}}
        return {"digest": "d", "stderr": "", "correct": True, "attempted": 100,
                "failed": next(failures), "metrics": metrics}

    return run


def test_a_non_finite_metric_fails_the_comparison(tmp_path, monkeypatch, capsys):
    argv = _contract_argv(tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", runs_reading([10.0, 10.0, 10.0, 10.0]))
    assert bench_pairs.main(argv) == 0
    monkeypatch.setattr(bench_pairs, "run_once", runs_reading([10.0, float("nan"), 10.0, 10.0]))
    assert bench_pairs.main(argv) == 1
    assert "invalid" in capsys.readouterr().out


def test_a_worse_metric_fails_the_comparison(tmp_path, monkeypatch, capsys):
    argv = _contract_argv(tmp_path)
    # parent, change for seed 701, then change, parent: the change halves trips_per_s
    monkeypatch.setattr(bench_pairs, "run_once", runs_reading([10.0, 5.0, 5.0, 10.0]))
    assert bench_pairs.main(argv) == 1
    assert "worse" in capsys.readouterr().out


def test_a_missing_metric_fails_the_comparison(tmp_path, monkeypatch, capsys):
    argv = _contract_argv(tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", runs_reading([10.0, 10.0, None, 10.0]))
    assert bench_pairs.main(argv) == 1
    assert "missing from a run" in capsys.readouterr().out


def test_a_larger_share_of_failed_operations_fails_the_comparison(tmp_path, monkeypatch, capsys):
    argv = _contract_argv(tmp_path)
    # runs go parent, change for seed 701, then change, parent for seed 702
    monkeypatch.setattr(bench_pairs, "run_once", runs_reading([10.0] * 4, failed=[2, 1, 0, 0]))
    assert bench_pairs.main(argv) == 0
    out = capsys.readouterr().out
    assert "parent failed 2 of 200 operations (1.0000%)" in out
    assert "change failed 1 of 200 operations (0.5000%)" in out
    monkeypatch.setattr(bench_pairs, "run_once", runs_reading([10.0] * 4, failed=[0, 1, 0, 0]))
    assert bench_pairs.main(argv) == 1
    assert "larger share of operations" in capsys.readouterr().out


def test_each_workload_gets_its_table_and_any_failure_fails_the_comparison(
    tmp_path, monkeypatch, capsys
):
    argv = _contract_argv(tmp_path)
    argv[argv.index("w")] = "w1,w2"
    readings = {"w1": runs_reading([10.0] * 4), "w2": runs_reading([10.0, float("nan"), 10.0, 10.0])}
    ran = []
    monkeypatch.setattr(
        bench_pairs, "run_once", lambda root, workload, *a: ran.append(workload) or readings[workload]()
    )
    assert bench_pairs.main(argv) == 1
    assert ran == ["w1"] * 4 + ["w2"] * 4
    out = capsys.readouterr().out
    assert "\nw1: 2 pairs" in out and "\nw2: 2 pairs" in out
    assert out.count("invalid") == 1
