"""Machine-speed calibration: fixed pure-Python work owned by the benchmark.

On a shared 2-core virtual machine the speed of the same code drifts by
tens of percent over tens of seconds, as other tenants come and go, so a
raw time measures the neighbours as much as the program.  The benchmark
therefore reports times in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / calibration time

where the calibration time is what ``sample`` takes right before and after
the measured work.  The calibration work (integer and tuple-keyed dict
updates, exact rational arithmetic: the program's mix) never calls ncphom.
It runs in a ``Calibrator``: a process of its own, started in isolated
mode with only the standard library, so the program's threads, heap and
caches cannot reach it and a change to the program cannot move it.

    python3 -I perfbench/calibrate.py    # serves: one sample per input line
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

# ``sample()`` on an idle 2.1 GHz Xeon (Sapphire Rapids) vCPU, Python 3.11.
REFERENCE_S = 0.0027
# Tries of each kind of work in one sample; REFERENCE_S holds for this.
REPEATS = 5


def _dict_work() -> int:
    counts: dict = {}
    x = 1
    for i in range(4000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 255, i & 7)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def _fraction_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
    return total


def sample() -> float:
    """Seconds one unit of calibration work takes now: the median time of
    each kind of work over ``REPEATS`` tries, summed."""
    clock = time.perf_counter
    total = 0.0
    for work in (_dict_work, _fraction_work):
        times = []
        for _ in range(REPEATS):
            start = clock()
            work()
            times.append(clock() - start)
        total += statistics.median(times)
    return total


def to_reference(seconds: float, calibration_s: float) -> float:
    """Measured seconds scaled to reference seconds."""
    return seconds * REFERENCE_S / calibration_s


class Calibrator:
    """A calibration process of its own; ``sample`` asks it for one sample.

    The process ends when its input closes: on ``close``, or when the
    process that started it ends.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-I", __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def sample(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def close(self) -> None:
        try:
            self._proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(sample(), flush=True)
