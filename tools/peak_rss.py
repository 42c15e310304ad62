"""Run a command and report its peak resident set size.

    python3 tools/peak_rss.py -- CMD [ARG ...]

Runs CMD, waits for it and then prints one line, `peak_rss_mb <value>`:
the largest resident set, in MiB, of CMD or of any descendant it waited
for (`getrusage(RUSAGE_CHILDREN).ru_maxrss`, which Linux reports in KiB).
The exit code is CMD's; a CMD killed by signal N exits 128 + N, as in a
shell, and a CMD that cannot be started exits 127.
"""

from __future__ import annotations

import resource
import subprocess
import sys


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--"]:
        args = args[1:]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        code = subprocess.call(args)
    except OSError as exc:
        print(f"peak_rss: cannot run {args[0]}: {exc}", file=sys.stderr)
        return 127
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak_rss_mb {peak:.1f}", flush=True)
    return 128 - code if code < 0 else code


if __name__ == "__main__":
    sys.exit(main())
