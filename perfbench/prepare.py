"""Generate one run's inputs in a process of their own.

    python3 perfbench/prepare.py WORKLOAD SEED SECONDS DIR

Runs before the measured process imports the program, so neither the
memory nor the time of generating inputs (and of the reference archives
computed from them) shows in the run's metrics.
"""

from __future__ import annotations

import sys


def main() -> None:
    workload, seed, seconds, dirpath = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    if workload == "service":
        import service

        service.prepare(seed, seconds, dirpath)
    elif workload == "blocks-process":
        import blocks

        blocks.prepare(seed, dirpath)
    else:
        import lib

        lib.prepare(workload, seed, dirpath)


if __name__ == "__main__":
    main()
