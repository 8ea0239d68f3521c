"""One set-up sample: a fresh interpreter imports ``sdvkit.cli`` and prepares a
workload's inputs, the work run.py does before its first timed pass.

    python3 perfbench/setup_probe.py <workload> <n> <seed> <work dir>

Prints the CLOCK_MONOTONIC time at which the set-up ended.  That clock is
system-wide, so run.py subtracts the time at which it started the process.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

from checkout import use_checkout_source


def main(argv: list[str]) -> None:
    use_checkout_source()
    import cases  # imports sdvkit.cli

    name, n, seed, workdir = argv
    workload = dataclasses.replace(cases.WORKLOADS[name], n=int(n))
    cases.Runner(workload, int(seed), Path(workdir)).prepare()
    print(time.clock_gettime(time.CLOCK_MONOTONIC))


if __name__ == "__main__":
    main(sys.argv[1:])
