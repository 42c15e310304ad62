"""tools/bench_record.py over a stubbed benchmark run: what it records, and
that it records nothing unless every run is correct and complete."""

import importlib.util
import json
import subprocess
from pathlib import Path

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_module(monkeypatch):
    """A fresh bench_record module, with tools/ on the path for its bench_pairs import."""
    monkeypatch.syspath_prepend(str(_TOOLS))
    spec = importlib.util.spec_from_file_location("bench_record", _TOOLS / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_bench_record(monkeypatch, root):
    """A fresh bench_record module that reads and writes under `root`, at a fixed commit."""
    module = load_module(monkeypatch)
    monkeypatch.setattr(module, "ROOT", root)
    monkeypatch.setattr(module, "commit", lambda root: "abc123-dirty")
    contract = {
        "run_seconds": 3,
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [
            {"name": "trips_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        ],
    }
    (root / "BENCHMARK.json").write_text(json.dumps(contract))
    return module


def stub_runs(module, monkeypatch, broken=None):
    """Stub run_once: trips_per_s reads the seed, setup_s a tenth of it;
    `broken(workload, seed, run)` may spoil a run in place. Returns the calls."""
    calls = []

    def run_once(root, workload, seed, seconds):
        calls.append((root, workload, seed, seconds))
        run = {"correct": True, "failed": 0, "attempted": 10, "digest": "d", "stderr": "",
               "provenance": {"workload": workload, "seed": seed},
               "metrics": {"trips_per_s": {"value": float(seed)}, "setup_s": {"value": seed / 10}}}
        if broken:
            broken(workload, seed, run)
        return run

    monkeypatch.setattr(module.bench_pairs, "run_once", run_once)
    return calls


def test_records_median_and_quartiles_per_workload(tmp_path, monkeypatch):
    module = load_bench_record(monkeypatch, tmp_path)
    calls = stub_runs(module, monkeypatch)
    assert module.main() == 0
    assert calls == [(tmp_path, w, s, 3) for w in ("w1", "w2") for s in range(701, 706)]
    rec = json.loads((tmp_path / "BENCH_w1.json").read_text())
    assert rec["workload"] == "w1" and rec["commit"] == "abc123-dirty"
    assert rec["seeds"] == [701, 702, 703, 704, 705] and rec["seconds"] == 3
    assert isinstance(rec["nproc"], int) and rec["nproc"] >= 1
    assert rec["metrics"]["trips_per_s"] == {
        "unit": "1/s", "better": "higher", "median": 703.0, "q1": 702.0, "q3": 704.0,
    }
    assert abs(rec["metrics"]["setup_s"]["median"] - 70.3) < 1e-9
    assert rec["provenance"] == [{"workload": "w1", "seed": s} for s in range(701, 706)]
    assert (tmp_path / "BENCH_w2.json").exists()


def test_writes_nothing_unless_every_run_is_correct_and_complete(tmp_path, monkeypatch, capsys):
    module = load_bench_record(monkeypatch, tmp_path)
    spoilers = [
        lambda run: run.update(correct=False),
        lambda run: run.update(failed=1),
        lambda run: run["metrics"].pop("setup_s"),
    ]
    for spoil in spoilers:
        # only the last run of the second workload is spoiled
        stub_runs(module, monkeypatch, lambda w, s, run: w == "w2" and s == 705 and spoil(run))
        assert module.main() == 1
        assert list(tmp_path.glob("BENCH_*.json")) == []
        assert "no record written" in capsys.readouterr().out


def test_commit_marks_a_changed_tracked_file(tmp_path, monkeypatch):
    module = load_module(monkeypatch)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    (tmp_path / "f.txt").write_text("a")
    subprocess.run(git + ["add", "f.txt"], cwd=tmp_path, check=True)
    subprocess.run(git + ["commit", "-q", "-m", "x"], cwd=tmp_path, check=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path, capture_output=True,
                          text=True, check=True).stdout.strip()
    (tmp_path / "untracked.txt").write_text("u")
    assert module.commit(tmp_path) == head
    (tmp_path / "f.txt").write_text("b")
    assert module.commit(tmp_path) == head + "-dirty"
