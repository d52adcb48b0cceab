"""Machine-speed probe: rescale measured times to a fixed reference speed.

On a shared host the same CPU-bound code runs 10-40% slower for minutes at
a time, and process CPU time slows with wall time, so neither clock alone
separates a slower program from a busier machine.  The probe times a fixed
interpreter-bound loop at a steady rate *during* the measured calls: an
interval timer (``SIGALRM``) interrupts the benchmark's single thread every
``INTERVAL_S`` seconds and the handler runs the loop once.  The time the
handler takes is subtracted from the measured interval, and the interval is
then rescaled by ``NOMINAL_S / median(loop times)``.  A calibrated time thus
reads "seconds on a machine where the loop takes ``NOMINAL_S``"; a change
to the package moves it, a change in the machine's speed mostly does not.

The loop touches none of the package's state, so report bytes are unchanged;
the digests that every run checks prove it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, process_time
from typing import NamedTuple

import numpy as np

INT_ITERS = 75_000
SCALAR_ITERS = 20_000
NOMINAL_S = 0.012      # the loop's time on the baseline host at its usual speed
INTERVAL_S = 0.2
MIN_SAMPLES = 5

_GRID = np.linspace(0.0, 1.0, 4096)


def reference_loop() -> int:
    """Fixed work shaped like the package's hot Python loops.

    Half is integer arithmetic, half numpy-scalar indexing and float
    compares (as in ``jump_count``'s binary searches): the integer half
    alone tracked the mixed ``regimes`` load but lagged ``jump_count``.
    """
    acc = 0
    for i in range(INT_ITERS):
        acc += i * i % 7
    grid = _GRID
    for i in range(SCALAR_ITERS):
        if grid[i & 4095] - grid[(i * 7) & 4095] > 0.25:
            acc += 1
    return acc


class SpeedProbe:
    """Interval-timer sampler of the reference loop's wall and CPU time.

    ``spent_wall``/``spent_cpu`` accumulate the handler's own cost, so a
    caller subtracts the growth over an interval from that interval.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.wall: list = []
        self.cpu: list = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0, c0 = perf_counter(), process_time()
        reference_loop()
        t1, c1 = perf_counter(), process_time()
        self.wall.append(t1 - t0)
        self.cpu.append(c1 - c0)
        self.spent_wall += perf_counter() - t0
        self.spent_cpu += process_time() - c0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple:
        """Position to pass to ``since``: samples taken and time spent so far."""
        return len(self.wall), self.spent_wall, self.spent_cpu

    def since(self, mark: tuple) -> "Interval":
        """The probe's samples and cost from ``mark`` until now."""
        k, wall0, cpu0 = mark
        return Interval(self.wall[k:], self.cpu[k:],
                        self.spent_wall - wall0, self.spent_cpu - cpu0)


class Interval(NamedTuple):
    """Probe samples and handler cost over one measured interval."""

    wall: list
    cpu: list
    spent_wall: float
    spent_cpu: float

    def factors(self, fallback: "Interval") -> tuple:
        """(wall, cpu) rescaling factors; too few samples use ``fallback``'s."""
        src = self if len(self.wall) >= MIN_SAMPLES else fallback
        return (NOMINAL_S / statistics.median(src.wall),
                NOMINAL_S / statistics.median(src.cpu))

