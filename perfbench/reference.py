"""The host's speed, measured with a fixed piece of reference work.

The benchmark's host is a small virtual machine that shares its cores with
other tenants.  While they are busy, every instruction of the benchmark
process runs slower, for stretches of seconds to minutes, with CPU time equal
to wall time, so neither a longer run nor CPU time removes the slowdown.
run.py therefore times `reference_work` between the commands of every timed
pass, and a `Sampler` times it every INTERVAL_S while a command runs; each
command's time is rescaled by the speed measured around and during it.  The
slowdown cancels, and a change to sdvkit, which the reference work never
calls, does not.

The reference work is a mix of what sdvkit's layers do: text parsing,
exact-fraction arithmetic, paged bytearray memory, a timing-model-like loop,
text formatting and small numpy operations.  It never changes; a change to
it is a change of the benchmark's unit.
"""

from __future__ import annotations

import re
import signal
from fractions import Fraction
from time import perf_counter

import numpy as np

# Seconds one `reference_work()` call takes on the benchmark's 2-vCPU host in
# its quiet stretches.  A time divided by the measured seconds per call and
# multiplied by this constant is the time at that speed.
REFERENCE_CALL_S = 0.011
# A Sampler times one reference call every INTERVAL_S of wall time.
INTERVAL_S = 0.25

_LINE = re.compile(r"(\S+)\s+(.*)")
_LINES = tuple(
    f"vfmacc.vv v{i % 32}, v{(i * 7) % 32}, v{(i * 3) % 32}" if i % 3 else
    f".memf64 {0x1000 + 8 * i:#x} {i * 0.25} {-i * 0.5} {i / 7}"
    for i in range(400))


def reference_work() -> int:
    """About REFERENCE_CALL_S seconds of fixed work; returns a checksum."""
    total = 0
    pages: dict[int, bytearray] = {}
    for _ in range(3):
        for line in _LINES:
            op, rest = _LINE.match(line).groups()
            if op.startswith("."):
                words = rest.split()
                base = int(words[0], 0)
                for index, word in enumerate(words[1:]):
                    addr = base + 8 * index
                    page = pages.get(addr >> 12)
                    if page is None:
                        page = pages[addr >> 12] = bytearray(4096)
                    offset = addr & 4095
                    page[offset:offset + 8] = int(float(word) * 1000).to_bytes(
                        8, "little", signed=True)
            else:
                regs = [int(reg.strip(" v")) for reg in rest.split(",")]
                exact = Fraction(regs[0] + 0.5) * Fraction(regs[1] + 0.25) + Fraction(regs[2])
                total += int(float(exact))
        rows = []
        now = 0
        busy: dict[str, int] = {}
        for i in range(1500):
            unit = "mem" if i % 3 == 0 else "arith"
            start = max(now, busy.get(unit, 0))
            busy[unit] = start + i % 5 + 1
            now = start + 1
            rows.append(f"{i}:{unit}:{start}:{busy[unit]}:{i * 0.125:.6f}")
        total += len("\n".join(rows))
    values = np.arange(4096, dtype=np.float64)
    for _ in range(20):
        values = values * 1.000001 + 0.5
    return total + int(values[-1])


def call_seconds(at_least_s: float) -> float:
    """Mean seconds per `reference_work()` call, over at least two calls
    and at least `at_least_s` seconds."""
    calls = 0
    start = perf_counter()
    while True:
        reference_work()
        calls += 1
        elapsed = perf_counter() - start
        if calls >= 2 and elapsed >= at_least_s:
            return elapsed / calls


class Sampler:
    """Times one `reference_work()` call every INTERVAL_S seconds while
    started, from a SIGALRM handler in the main thread: the host's speed
    during a command, not only at its ends.  `stop` returns the seconds of
    each call and the seconds the handler took in all, which the caller
    takes off the command's time.  Main thread only."""

    def __init__(self):
        self.calls: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference_work()
        self.calls.append(perf_counter() - start)
        self.spent_s += perf_counter() - start

    def start(self) -> None:
        self.calls, self.spent_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[list[float], float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return self.calls, self.spent_s
