"""Host speed sensing, so that timings can be scaled to a reference host.

Shared hosts change speed by tens of percent within seconds when other
tenants load them, and the change hits the program and any other code
alike.  While a ``SpeedSampler`` is active, a SIGALRM timer runs a tiny
fixed loop every INTERVAL_S seconds and records how long it took.  A
time measured over [start, end] is then multiplied by REFERENCE_S over
the mean loop time sampled in that interval, which gives the time the
same work would take on a host where the loop takes REFERENCE_S.
``ChildSampler`` does the same for work done in child processes, with a
reference child process timed between operations.
"""

from __future__ import annotations

import bisect
import signal
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.005
# the loop's time on the reference host, a round figure near its
# standalone time on the machine BASELINE.json was measured on; it only
# sets the unit of the scaled times
REFERENCE_S = 50e-6
MIN_SAMPLES = 4

# A reference child: a fresh interpreter that imports a fixed set of
# standard modules and runs a fixed loop, as a CLI request starts up,
# imports and computes.  CHILD_REFERENCE_S is its time on the reference
# host; CHILD_EVERY is how many requests pass between two samples.
CHILD_CODE = ("import argparse, dataclasses, itertools, json\n"
              "from fractions import Fraction\n"
              "s = Fraction(0)\n"
              "for i in range(1, 500):\n"
              "    s += Fraction(i, i + 1) * Fraction(2 * i - 1, 3)\n")
CHILD_REFERENCE_S = 0.05
CHILD_EVERY = 6


def _probe():
    # object allocation, method dispatch and small-integer arithmetic, as
    # in the program's exact linear algebra
    s = Fraction(0)
    for i in range(1, 12):
        s += Fraction(i, i + 1) * Fraction(2 * i - 1, 3)
    return s


class SpeedSampler:
    """Context manager that samples the loop time in the background.

    Each sample runs the loop twice and times the second run, so that the
    loop's own instructions and data are in cache and its time depends on
    the host, not on what the interrupted program left in the cache."""

    reference = REFERENCE_S

    def __init__(self):
        self.starts = []         # when each sample began
        self.costs = []          # seconds of the timed (second) loop
        self.spent = []          # seconds the whole sample took
        self._previous = None

    def _sample(self, signum, frame):
        start = perf_counter()
        _probe()
        warm = perf_counter()
        _probe()
        end = perf_counter()
        self.starts.append(start)
        self.costs.append(end - warm)
        self.spent.append(end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def sample(self):
        """Nothing to do between operations: the timer takes the samples."""

    def _window(self, start, end):
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        while j - i < MIN_SAMPLES and (i > 0 or j < len(self.starts)):
            i = max(i - 1, 0)
            j = min(j + 1, len(self.starts))
        return i, j

    def stolen(self, start, end):
        """Seconds the sampler itself ran inside [start, end]."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        return sum(self.spent[i:j])

    def scale(self, start, end):
        """The reference time over the mean sample time around [start, end]."""
        i, j = self._window(start, end)
        if i == j:
            return 1.0
        return self.reference * (j - i) / sum(self.costs[i:j])


class ChildSampler(SpeedSampler):
    """Speed sampling for work done in child processes.

    A sampler in the parent sleeps while the child runs and does not
    follow the child's speed, so this one times a reference child every
    CHILD_EVERY operations, between them, and scales by
    CHILD_REFERENCE_S over the mean of the nearest samples."""

    reference = CHILD_REFERENCE_S

    def __init__(self, env, cwd):
        super().__init__()
        self._argv = [sys.executable, "-c", CHILD_CODE]
        self._env = env
        self._cwd = cwd
        self._due = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def sample(self):
        self._due -= 1
        if self._due > 0:
            return
        self._due = CHILD_EVERY
        start = perf_counter()
        subprocess.run(self._argv, env=self._env, cwd=self._cwd, check=True,
                       stdin=subprocess.DEVNULL)
        self.starts.append(start)
        self.costs.append(perf_counter() - start)
        self.spent.append(0.0)

