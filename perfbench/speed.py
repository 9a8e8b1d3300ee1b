"""The reference timings that every time of the benchmark is scaled by.

The benchmark's host is shared: the same code runs up to 1.8 times faster or
slower for seconds to minutes at a time, depending on what else the host
runs.  So a fixed reference task, which uses nothing from agcoh, is timed
next to the program's work, in the same process tree and on the same CPU.
A time `t` taken while the reference took `r` is reported as
`t * reference.seconds / r`: the time the work would take on a machine where
the reference takes `reference.seconds`.  A change to the program cannot
change the reference; the raw times are kept beside the scaled ones.

There are two references, because the host's speed-ups and slow-downs do
not act alike on running Python and on starting a process:

- LOOP, for work inside a running process: a pass of plain Python
  (tuple-keyed dict updates, integer and big Fraction arithmetic, the
  operations agcoh's kernels are made of) with the garbage collector off,
  so that it does not depend on how many objects the program holds;
- SPAWN, for anything that starts a process (set-up, `agcoh.cli` child
  processes): starting the same interpreter, in the same environment, on
  `-c pass`.
"""
from __future__ import annotations

import gc
import subprocess
import sys
import time
from fractions import Fraction

from inputs import child_env


def _loop() -> None:
    acc = Fraction(0)
    table: dict[tuple[int, int, int], int] = {}
    x = 12345
    for i in range(700):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 41, (x >> 8) % 37, i % 5)
        table[key] = table.get(key, 0) + x * i
        acc += Fraction(x % 97 + 1, (x >> 4) % 89 + 1)


def _time_loop() -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        _loop()
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def _time_spawn() -> int:
    start = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True)
    return time.perf_counter_ns() - start


class Reference:
    def __init__(self, name: str, seconds: float, every_ns: int, timer):
        self.name = name
        self.seconds = seconds    # the reference's time on the scaled-to machine
        self.every_ns = every_ns  # how much work may pass between two timings
        self.time_ns = timer      # one timing of the reference, in ns

    def scale(self, seconds: float, ref_ns: float) -> float:
        """`seconds` measured while the reference took `ref_ns`."""
        return seconds * self.seconds * 1e9 / ref_ns


# `seconds` is about the median on a shared 2-vCPU Xeon VM.
LOOP = Reference("loop", 0.004, 50_000_000, _time_loop)
SPAWN = Reference("spawn", 0.060, 400_000_000, _time_spawn)
