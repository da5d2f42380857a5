"""Entry point of the ``BENCHMARK.json`` command: ``python3 benchmarks/e2e/run.py``.

Run from the root of a checkout. Puts the checkout and its ``src`` on the
import path — the driver sets no ``PYTHONPATH`` — and hands over to the
command line in :mod:`benchmarks.e2e.cli`. In a directory without the
program's sources the import fails and the exit code is non-zero.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

if __name__ == "__main__":
    from benchmarks.e2e.cli import main

    sys.exit(main())
