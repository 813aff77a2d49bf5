"""``repro worker`` with the benchmark's timing wrappers installed.

Usage: ``python3 perfbench/traced_worker.py --server URL --span-dir DIR``.
Installs :mod:`perfbench.spans` wrappers, then runs the real CLI entry
``repro worker --server URL`` on its defaults.  Events go to a file in
``DIR`` after every posted result and when SIGTERM ends the worker.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--server", required=True)
    parser.add_argument("--span-dir", required=True, type=Path)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.spans import Recorder, install
    from repro.__main__ import main as repro_main

    recorder = Recorder(args.span_dir)
    install(recorder, role="worker")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        return repro_main(["worker", "--server", args.server])
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
