"""tools/peak_rss.py: the peak it reports and the exit code it passes through."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"


def test_reports_the_childs_peak_and_passes_its_exit_code():
    child = "import sys; block = b'x' * (50 * 2**20); sys.exit(3)"  # 50 MiB, every page written
    done = subprocess.run(
        [sys.executable, str(TOOL), "--", sys.executable, "-c", child],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 3
    name, value = done.stdout.split()
    assert name == "peak_rss_mb" and float(value) >= 50.0
