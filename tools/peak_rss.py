#!/usr/bin/env python3
"""Run a command and bound its peak resident set size.

    tools/peak_rss.py MAX_MB CMD [ARG...]

Runs CMD (stdout discarded), prints its peak RSS in MB as
getrusage(RUSAGE_CHILDREN) reports it, and exits non-zero when CMD fails
or its peak exceeds MAX_MB.  Standard library only.
"""

from __future__ import annotations

import resource
import subprocess
import sys


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        limit_mb = float(sys.argv[1])
    except ValueError:
        print(f"peak_rss: MAX_MB must be a number, got {sys.argv[1]!r}", file=sys.stderr)
        return 2
    cmd = sys.argv[2:]
    status = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{' '.join(cmd)}: peak RSS {peak_mb:.1f} MB (bound {limit_mb:g} MB)")
    if status != 0:
        print(f"peak_rss: command exited with status {status}", file=sys.stderr)
        return 1
    if peak_mb > limit_mb:
        print(f"peak_rss: peak RSS {peak_mb:.1f} MB exceeds {limit_mb:g} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
