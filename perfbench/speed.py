"""Seconds at a reference machine speed.

The virtual machines this benchmark was written on change speed by 10-40%
within seconds, because other tenants share the physical cores; neither CPU
time nor steal time shows it.  A small loop of plain Python dict and tuple
work slows by about the same factor as the library's Python code (less well
for time spent in numpy and scipy), so the benchmark times that loop around
and during each measured interval and reports the interval at the loop's
reference speed:

    seconds_at_reference = seconds * CALIBRATION_REF_S / mean(loop times)

During an interval a SIGALRM timer (no thread) runs the loop every
PROBE_PERIOD_S; the loop's own time is taken out of the interval.
"""

from __future__ import annotations

import signal
import statistics
import time

CALIBRATION_REF_S = 0.00075  # the loop's time on an idle 2-core Xeon VM
PROBE_PERIOD_S = 0.05
BRACKET = 20  # samples taken right before and right after each interval


def _loop() -> int:
    counts: dict = {}
    total = 0
    for i in range(3_000):
        key = (i & 255, i % 7)
        counts[key] = counts.get(key, 0) + 1
        total += len(key)
    return total


def loop_seconds() -> float:
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def calibrate(samples: int = 9) -> float:
    """Median time of the loop now: the machine's current speed."""
    return statistics.median(loop_seconds() for _ in range(samples))


def at_reference_speed(seconds: float, loop_times) -> float:
    return seconds * CALIBRATION_REF_S / statistics.fmean(loop_times)


class Probe:
    """Times intervals and samples the machine's speed during them."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the samples took

    def sample(self, *_signal_args) -> None:
        seconds = loop_seconds()
        self.samples.append(seconds)
        self.spent += seconds

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """How much slower than the reference the machine ran while probed."""
        return statistics.fmean(self.samples) / CALIBRATION_REF_S

    def start(self) -> tuple[int, float, float]:
        for _ in range(BRACKET):
            self.sample()
        return len(self.samples) - BRACKET, self.spent, time.perf_counter()

    def stop(self, mark: tuple[int, float, float]) -> tuple[float, float]:
        """(seconds as clocked minus sampling, seconds at reference speed)."""
        first, spent, t0 = mark
        seconds = time.perf_counter() - t0 - (self.spent - spent)
        for _ in range(BRACKET):
            self.sample()
        return seconds, at_reference_speed(seconds, self.samples[first:])
