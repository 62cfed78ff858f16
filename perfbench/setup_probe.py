"""Time one workload set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED``.  Prints the
seconds from the first line of this script to the end of the set-up:
imports, library resolve and model construction.  ``run.py`` starts
several of these one after another and reports their median as
``setup_s``, since an import is only cold once per process.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
