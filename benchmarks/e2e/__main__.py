"""``python -m benchmarks.e2e`` (or this file's path) -- see ``cli.py``."""

import sys
from pathlib import Path

if not __package__:
    # Started by path: look where ``-m`` from the repository root would.
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.cli import main

if __name__ == "__main__":
    sys.exit(main())
