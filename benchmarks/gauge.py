"""Host-speed gauge: a fixed reference computation timed between operations.

The benchmark runs on a share of a host whose speed swings by up to 1.6x in
phases of a few seconds (the same pure-Python loop takes 24-38 ms in
5-second windows of one minute; the same corpus-sweep operation takes
0.87 s in one run and 1.42 s in the next). Runs that land in different
phases then differ by the phase, not by the program.

`Gauge` times `reference()`, a small exact Gauss-Jordan elimination over
`Fraction`s and a dict fill (the work laxepi does, written here so that no
change to the library changes it): `IN_PROCESS`. It samples between
operations, at most every `period_s` seconds, and, while `sampling()` is
on, also inside them: a profiling timer (SIGPROF) fires every `period_s`
seconds of the process's CPU time and its handler takes a sample. The time
spent in samples is counted in `spent`, so that a caller can take it out of
the operation's time. The speed factor of an interval is the median
reference time of the samples within `window_s` of it, over `nominal_s`.
A timing divided by that factor reads as it would at the reference speed:
a host in a phase where the reference takes `nominal_s` seconds. Every
timed end-to-end metric is reported in these seconds; `run.py` also
prints the raw figures.

A workload whose operations are fresh processes (cli-check) is timed against
`NEW_PROCESS` instead: a fresh interpreter that imports a few standard
modules. Its cost is mostly interpreter start, `site` and reading compiled
modules, which the in-process reference does not see: against it the CLI
calls' 5-second medians spread 6 %, against the fresh interpreter 2 %.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

RECENT = 9  # samples behind `recent_factor`


def reference() -> int:
    """Row-reduce a fixed 7 x 9 rational matrix and fill a dict; returns its rank."""
    n, m = 7, 9
    a = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(m)] for i in range(n)]
    rank = 0
    for c in range(m):
        p = next((i for i in range(rank, n) if a[i][c]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        inv = 1 / a[rank][c]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(n):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    table = {}
    for i in range(2000):
        table[(i, i % 7)] = [i]
    return rank + len(table)


def new_process() -> None:
    """A fresh interpreter that imports a few standard modules."""
    subprocess.run(
        [sys.executable, "-c", "import argparse, decimal, email.parser, fractions, json, statistics, typing"],
        capture_output=True, timeout=60, check=True,
    )


@dataclass(frozen=True)
class Reference:
    """A reference computation and how a gauge samples it."""

    run: Callable[[], object]
    nominal_s: float  # its time at the reference speed
    period_s: float  # least time between two samples
    window_s: float  # samples this close to an interval set its factor
    in_operations: bool  # also sample inside operations (SIGPROF)


# One sample varies by up to 1.7x from the next (the host's millisecond
# bursts), so a factor is the median of the 40 or so samples of a window.
IN_PROCESS = Reference(reference, 2.5e-3, 0.05, 1.0, True)
# Each sample costs 80-100 ms, so fewer of them, over a wider window.
NEW_PROCESS = Reference(new_process, 0.08, 0.5, 2.0, False)


class Gauge:
    """Samples of the reference's time, and the speed factor they give an interval."""

    def __init__(self, ref: Reference = IN_PROCESS):
        self.ref = ref
        self.starts: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0  # seconds spent taking samples, in `sample` calls included
        self._last = float("-inf")
        self._busy = False

    def sample(self, count: int = 1) -> None:
        if self._busy:  # the timer fired while a sample was being taken
            return
        self._busy = True
        try:
            for _ in range(count):
                start = time.perf_counter()
                self.ref.run()
                end = time.perf_counter()
                self.starts.append(start)
                self.times.append(end - start)
                self.spent += end - start
                self._last = end
        finally:
            self._busy = False

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.ref.period_s:
            self.sample()

    @contextmanager
    def sampling(self):
        """Also sample inside operations, every period_s seconds of CPU time,
        if the reference is one that may."""
        if not self.ref.in_operations:
            yield self
            return
        previous = signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, self.ref.period_s, self.ref.period_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def factor(self, start: float, end: float) -> float:
        """Median reference time within window_s of [start, end], over nominal_s."""
        lo = bisect.bisect_left(self.starts, start - self.ref.window_s)
        hi = bisect.bisect_right(self.starts, end + self.ref.window_s)
        near = self.times[lo:hi]
        if not near:  # no sample that close: the nearest one on either side
            near = self.times[max(lo - 1, 0) : lo + 1]
        return statistics.median(near) / self.ref.nominal_s

    def recent_factor(self) -> float:
        """Factor of the last RECENT samples: the speed now, for a latency limit."""
        return statistics.median(self.times[-RECENT:]) / self.ref.nominal_s

    def normalize(self, start: float, duration: float) -> float:
        """`duration`, taken from `start`, in seconds at the reference speed."""
        return duration / self.factor(start, start + duration)
