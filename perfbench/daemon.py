"""Launch ``repro serve`` for the ``serve`` workload.

``python -m perfbench.daemon [--spans-dir DIR] -- <repro serve args>``
runs the daemon through the program's own CLI.  With ``--spans-dir`` the
span wrappers are installed first, so the daemon and its forked pool
workers record spans from their first request.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans-dir", type=Path, default=None)
    args = parser.parse_args(argv[:split])
    if args.spans_dir is not None:
        from perfbench import spans

        spans.install("daemon", args.spans_dir)
    from repro.cli import main as repro_main

    return repro_main(["serve", *argv[split + 1:]])


if __name__ == "__main__":
    sys.exit(main())
