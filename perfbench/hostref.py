"""Host-speed reference for the solab benchmark.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes.  A fixed piece of Python and numpy work
(`reference_work`), independent of solab, is timed every `every_s`
seconds between jobs through the whole run.  Every time the run reports
is its wall time times `factor()`, REF_NOMINAL_S over the median
reference time of the run: the time it would take on a host that runs the
reference in REF_NOMINAL_S.  A change to solab moves these times as it
moves wall times; a change in the host's speed, which moves the reference
too, largely cancels.  One factor per run keeps the shape of the run's
own distribution of times, so the noise of single reference samples does
not reach its tail.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# about the median time of the reference on the host of BASELINE.md
REF_NOMINAL_S = 0.008
MAX_BURST = 8  # probes in one gap between jobs

_SMALL = np.linspace(0.0, 1.0, 2001)
_LARGE = np.linspace(0.0, 1.0, 65537)
_RECORD = {f"k{j}": j * 1.5 for j in range(20)}


def reference_work() -> float:
    """Interpreter work, numpy on grid-sized and on larger arrays, and
    float formatting, in roughly the mix of the workloads' jobs."""
    acc = 0.0
    for i in range(40):
        y = np.sin(_SMALL * (i + 1)) * np.cos(_SMALL) + _SMALL**2
        acc += float(y.sum())
        acc += sum(k * 0.5 for k in range(150))
        acc += len(json.dumps(_RECORD))
        acc += len(",".join(repr(float(v)) for v in y[i * 25:(i + 1) * 25]))
    for i in range(5):
        acc += float(np.cumsum(np.exp(-_LARGE * (i + 1)))[-1])
    return acc


class HostClock:
    """Reference samples taken through a run."""

    def __init__(self, every_s: float = 0.5, clock=time.perf_counter, work=reference_work):
        self.every_s = every_s
        self.clock = clock
        self.work = work
        self.last = None
        self.seconds = []  # reference durations

    def probe(self) -> float:
        """Time the reference once; returns the seconds it took."""
        start = self.clock()
        self.work()
        self.last = self.clock()
        self.seconds.append(self.last - start)
        return self.seconds[-1]

    def maybe_probe(self) -> float:
        """Probe once for every `every_s` that has passed since the last
        probe, at most MAX_BURST times, so that long jobs get as many
        samples as short ones; returns the seconds spent."""
        if self.last is None:
            return self.probe()
        count = min(MAX_BURST, int((self.clock() - self.last) / self.every_s))
        return sum(self.probe() for _ in range(count))

    def factor(self) -> float:
        """Reference seconds per wall second over the run so far."""
        if not self.seconds:
            raise ValueError("no reference sample taken")
        return REF_NOMINAL_S / statistics.median(self.seconds)
