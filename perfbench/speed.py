"""Machine-speed calibration for the end-to-end timings.

The CPU speed of a small shared VM drifts: a loop of fixed size runs up to
50% slower for stretches of seconds to minutes, and CPU time follows wall
time, so it is not descheduling and no run length averages it away.  The
benchmark therefore reports every end-to-end time at a reference speed.

Between commands, at most every ``EVERY_S`` seconds, it times a fixed loop
that does not touch gframes: about 70% complex SVDs (two at 64x64, twelve
at 12x12), the rest pure-Python float and dict work and a JSON round trip
of ``[re, im]`` pairs.  A command's time is scaled by ``REF_S`` over the
median of the loop times measured from ``WINDOW_S`` before it to
``WINDOW_S`` after it, and at least the last one before it and the first
one after it.  A scaled time reads as the time the command would take on a
machine on which the loop takes ``REF_S``.  On a 2-vCPU x86_64 VM with
Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31 on 1 thread, the loop takes
about that long, so there scaled and raw times agree up to the drift.

The SVD-heavy mix tracks the drift best: timed side by side for three
minutes on that VM, a ``generate`` at (8,4,16) moved with a 56x56 SVD at
slope 1.0 (log-log) and a ``verify`` at (8,8,32) at slope 0.7; the Python
loop gave 0.8 and 0.5.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
from time import perf_counter

import numpy as np

REF_S = 0.004
EVERY_S = 0.25
WINDOW_S = 1.0
_REPEATS = 3   # loop timings per calibration; their median is kept


class Speedometer:
    """Calibration timeline of one run: ``tick`` between commands,
    ``scaled`` after the last tick."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = rng.standard_normal((12, 12, 12)) + 1j * rng.standard_normal((12, 12, 12))
        self._big = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._doc = rng.standard_normal((300, 2)).tolist()
        # Bound now, so that a tracer installed later never sees these calls.
        self._svd, self._dumps, self._loads = np.linalg.svd, json.dumps, json.loads
        self.ends: list[float] = []    # perf_counter at the end of each calibration
        self.loops: list[float] = []   # its loop time, seconds

    def _loop(self) -> float:
        t0 = perf_counter()
        acc, table = 0.0, {}
        for i in range(2000):
            acc += (i * 0.5) ** 0.5
            table[i & 127] = acc
        self._loads(self._dumps(self._doc))
        for a in self._mats:
            self._svd(a, compute_uv=False)
        for _ in range(2):
            self._svd(self._big)
        return perf_counter() - t0

    def tick(self, force: bool = False) -> None:
        """Calibrate if ``EVERY_S`` has passed since the last time, or if forced."""
        if force or not self.ends or perf_counter() - self.ends[-1] >= EVERY_S:
            # With the collector off, the program's heap size cannot change
            # what the loop costs.
            gc.disable()
            try:
                loop = statistics.median(self._loop() for _ in range(_REPEATS))
            finally:
                gc.enable()
            self.ends.append(perf_counter())
            self.loops.append(loop)

    def scaled(self, t0: float, t1: float) -> float:
        """``t1 - t0`` at the reference speed.  Needs a calibration that
        ended by ``t0`` and one that ended after ``t1``."""
        i = bisect.bisect_right(self.ends, t0) - 1
        j = bisect.bisect_left(self.ends, t1)
        if i < 0 or j == len(self.ends):
            raise ValueError("interval not bracketed by calibrations")
        i = min(i, bisect.bisect_left(self.ends, t0 - WINDOW_S))
        j = max(j, bisect.bisect_right(self.ends, t1 + WINDOW_S) - 1)
        return (t1 - t0) * REF_S / statistics.median(self.loops[i:j + 1])

    def median_loop(self) -> float:
        return statistics.median(self.loops)
