"""tools/wire_digests.py prints the same labelled lines on every run."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "wire_digests.py"


def test_two_runs_print_the_same_labelled_lines(monkeypatch):
    # the tool sets the BLAS thread count and puts its src/ first on the path
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("wire_digests", _PATH)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    first, second = tool.digest_lines(), tool.digest_lines()
    assert first == second
    labels = [line.rsplit(" ", 1)[0] for line in first]
    assert labels == [
        "key_blocks driver", "key_set driver direct-driver", "key_set driver transfer-driver",
        "key_set driver transfer-rider", "key_set driver time-driver",
        "key_blocks rider", "key_set rider direct-rider", "key_set rider transfer-rider",
        "key_set rider time-rider",
        *tool.PAYLOADS, "similarities",
    ]
    assert all(len(line.rsplit(" ", 1)[1]) == 64 for line in first)
    assert len({line.rsplit(" ", 1)[1] for line in first}) == len(first)
