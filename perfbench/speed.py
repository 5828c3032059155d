"""Machine speed, measured beside and inside every timed task.

A virtual machine that shares its physical cores with other tenants can
change speed by up to 2x, in spells from a fraction of a second to minutes,
without any of it showing as steal time. A fixed kernel measures the speed
of the moment: it runs between every two tasks, and a Sampler runs it every
SAMPLE_CPU_S of CPU time inside a task, on a virtual-time signal, and keeps
the time it took out of the task's clock. A task's time at reference speed
is its measured time scaled by the kernel's reference time over its time
around and inside the task (see scale).

The kernel shares no code with partlab, so a faster or slower partlab moves
the scaled times exactly as it moves the measured ones. PYTHON's three parts
follow the kinds of work partlab does: small-integer arithmetic, a big-integer
table update (the engines' recurrences) and a memoised recursion over
integer keys (rewrite evaluation and the DAG build). A `plab` call is mostly
process start and imports, which a slow spell slows less than Python code;
SPAWN, the start of a bare interpreter, follows it instead.
"""

from __future__ import annotations

import gc
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# CPU time between two kernel runs inside a task: about 5% of it goes to the
# kernel, which the task's clock leaves out.
SAMPLE_CPU_S = 0.04


def _arithmetic() -> int:
    total = 0
    for i in range(6000):
        total += i * i % 7
    return total


def _table(n: int = 90) -> int:
    p = [1] + [0] * n
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            p[m] += p[m - k]
    return p[n]


def _count(m: int, k: int, memo: dict) -> int:
    key = m * 1024 + k
    if key in memo:
        return memo[key]
    if m == 0:
        value = 1
    elif k == 0 or m < 0:
        value = 0
    else:
        value = _count(m - k, k, memo) + _count(m, k - 1, memo)
    memo[key] = value
    return value


def _memo(n: int = 60) -> int:
    # int keys and no closure: the kernel leaves nothing for the cyclic
    # collector and hardly moves its allocation count
    return _count(n, n, {})


def kernel_s() -> float:
    """Seconds one run of the fixed kernel takes now.

    The cyclic collector is off while it runs: run inside a task, a collection
    would traverse the task's heap and count that as the kernel's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _arithmetic()
        _table()
        _memo()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def spawn_s() -> float:
    """Seconds it takes now to start and end a bare interpreter, without
    site or environment."""
    start = perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
    return perf_counter() - start


@dataclass(frozen=True)
class Kernel:
    name: str
    run: Callable[[], float]  # seconds one run takes now
    # Fixed, so scaled times compare across runs and commits; chosen between
    # the kernel's times in the fast and the slow spells of the machine of
    # the first baseline (2-vCPU Intel Xeon virtual machine, Python 3.11.7),
    # so that there a scaled time reads about as the measured one.
    reference_s: float
    # whether it can run inside a task, on a signal
    in_tasks: bool


PYTHON = Kernel("python", kernel_s, 0.002, True)  # 1.4 ms fast, 2.3 ms slow
# 12 ms fast, 16 ms slow; starting processes from a signal handler is not an
# option, and the parent of a plab call hardly uses the CPU anyway
SPAWN = Kernel("spawn", spawn_s, 0.014, False)


def scale(samples: list[float], kernel: Kernel) -> float:
    """Factor from measured to reference-speed time for a task, given the
    kernel's times just before it, inside it and just after it.

    An interrupt or a preemption only ever lengthens a kernel run. A task
    with no sample inside ran within one spell, and the shorter of the two
    runs around it reads that spell's speed best. A longer task may span
    several spells and takes the median of all its samples.
    """
    typical = min(samples) if len(samples) == 2 else statistics.median(samples)
    return kernel.reference_s / typical


class Sampler:
    """Runs a kernel between tasks and, if it can, every SAMPLE_CPU_S of CPU
    time while a task runs.

    Owns SIGVTALRM. clock() is perf_counter() less the time spent in the
    kernel inside tasks, so it times the task alone.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.samples: list[float] = []
        self.paused_s = 0.0
        signal.signal(signal.SIGVTALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(self.kernel.run())
        self.paused_s += perf_counter() - start

    def clock(self) -> float:
        return perf_counter() - self.paused_s

    def start(self) -> None:
        self.samples = []
        if self.kernel.in_tasks:
            signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_CPU_S, SAMPLE_CPU_S)

    def stop(self) -> list[float]:
        """The kernel times taken since start."""
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        return self.samples
