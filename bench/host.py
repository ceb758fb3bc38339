"""Correction for the load other tenants put on the benchmark's core.

The benchmark shares a physical core with other tenants' work. When they
are busy, the same code runs up to twice as slowly, and the share of time
the core is free changes from one half minute to the next (from under 1%
to 59% of a 35-s window, in one nine-minute probe). A run's raw wall times
therefore follow the neighbours, not the program.

``Calibration`` measures that load. After every timed operation it runs a
frozen reference kernel for a fixed share of the operation's time. The
kernel is the benchmark's own copy of one exact cohort-Shapley explain:
similarity patterns, a pattern histogram, a superset sum and the Shapley
contraction on a fixed table. It is not the program's code, so a change to
the program cannot change it, but it slows under load as the program's
explain does (1.85x and 1.82x in one interleaved probe). One kernel run
takes under a millisecond, so over a run some land in the short spells
when the core is free: the fastest is the kernel's time on a free core.

An operation's load is the mean kernel time in the windows just before and
just after it, and its time on a free core is its wall time scaled by the
fastest kernel time over that load. The load changes within a second, so
the windows must be adjacent to the operation; one factor for the whole run
leaves the metrics as noisy as the raw times. Code that slows less under
load than the kernel, such as numpy over tables of many megabytes, is
scaled too far when the load changes; it carries more spread than the rest.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# The reference kernel runs for this share of each timed operation's time.
SHARE = 0.2

_N, _D, _TARGETS = 400, 6, 4


def _shapley_weights(d):
    return np.array([1.0 / (d * math.comb(d - 1, s)) for s in range(d)])


class _Kernel:
    """One exact cohort-Shapley explain per target, in plain numpy."""

    def __init__(self):
        rng = np.random.default_rng(20191101)
        self.X = np.round(rng.normal(size=(_N, _D)), 2)
        self.y = self.X @ rng.normal(size=_D)
        idx = np.arange(1 << _D)
        sizes = np.array([bin(u).count("1") for u in idx])
        w = _shapley_weights(_D)
        self.without = [idx[(idx >> j) & 1 == 0] for j in range(_D)]
        self.weights = [w[sizes[u]] for u in self.without]
        self.bits = 1 << np.arange(_D)
        self.targets = rng.choice(_N, size=_TARGETS, replace=False)

    def _superset_sum(self, table):
        for j in range(_D):
            v = table.reshape(1 << (_D - 1 - j), 2, 1 << j)
            v[:, 0, :] += v[:, 1, :]

    def __call__(self) -> float:
        acc = 0.0
        for t in self.targets:
            close = np.abs(self.X - self.X[t]) <= 0.5
            codes = close.astype(np.int64) @ self.bits
            counts = np.bincount(codes, minlength=1 << _D).astype(float)
            sums = np.bincount(codes, weights=self.y, minlength=1 << _D)
            self._superset_sum(counts)
            self._superset_sum(sums)
            values = sums / counts - self.y.mean()
            for j in range(_D):
                u = self.without[j]
                acc += float((values[u | (1 << j)] - values[u]) @ self.weights[j])
        return acc


class Calibration:
    """Reference-kernel timings taken between a run's timed operations."""

    def __init__(self):
        self.kernel = _Kernel()
        self.times: list[float] = []
        self.spent = 0.0  # seconds in after(), kernel runs and checks included
        self.last: float | None = None  # mean kernel time of the latest window
        self.expected = self.kernel()
        for _ in range(20):  # warm up before timing
            self.kernel()

    def after(self, elapsed: float) -> float:
        """Run the kernel for SHARE of ``elapsed`` seconds, at least once,
        right after an operation that took ``elapsed``; returns the
        operation's load."""
        budget = SHARE * elapsed
        spent = 0.0
        runs = 0
        entered = time.perf_counter()
        while True:
            start = time.perf_counter()
            value = self.kernel()
            took = time.perf_counter() - start
            if value != self.expected:
                raise RuntimeError("reference kernel gave a different result")
            self.times.append(took)
            spent += took
            runs += 1
            if spent >= budget:
                break
        self.spent += time.perf_counter() - entered
        window = spent / runs
        load = window if self.last is None else (self.last + window) / 2
        self.last = window
        return load

    def gap(self) -> None:
        """Untimed work ran since the latest window; the next operation's
        load rests on the window after it alone."""
        self.last = None

    def fastest(self) -> float:
        """The kernel's time on a free core: its fastest run so far."""
        return min(self.times)

    def slowdown(self) -> float:
        """Mean kernel time over the fastest: the run's average load."""
        return statistics.fmean(self.times) / self.fastest()
