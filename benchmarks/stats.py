"""Summary statistics and speed scaling shared by the benchmark's processes.

A shared host's cores change speed under other tenants' load: on a 2-core
x86-64 host, a fixed loop ran in states about 1.5x apart that lasted tens
of seconds.  Each measured time is therefore scaled by
``REF_NOMINAL_S / reference``, where ``reference`` is the time of a fixed
pure-Python loop (``reference_s``) measured on the same core just before
and just after it.  The loop is part
of the benchmark, not of splitoct, so a change to splitoct cannot move it;
on an uncontended core the scaled time is the wall time.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

BLOCKS = 10             # throughput is the median over this many consecutive blocks
REF_NOMINAL_S = 0.0028  # reference_s() on an uncontended core of a 2-core x86-64 host


_REF_MATRIX = np.arange(256, dtype=np.float64).reshape(16, 16) / 100


def _reference_loop():
    # Integer and Fraction arithmetic as in the sweeps, small NumPy calls as
    # in the kernels: contention slows each of these by its own factor.
    total = 0
    for i in range(20000):
        total += (i * i) % 7
    acc = Fraction(total)
    for i in range(1, 400):
        acc += Fraction(i % 7, i % 5 + 1)
    v = np.ones(16)
    for _ in range(300):
        v = (_REF_MATRIX @ v) / 50.0 + np.asarray([1.0] * 16)
    return acc, v


def reference_s() -> float:
    """Fastest of three timings of the reference loop: the core's speed,
    without the odd interrupt that lands in one timing."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    return min(times)


class SpeedScale:
    """Scales consecutive measurements by the reference timed around each."""

    def __init__(self):
        self._last = reference_s()
        self.references = [self._last]

    def factor(self) -> float:
        """Scale for what was measured since the previous call."""
        ref = reference_s()
        self.references.append(ref)
        factor = REF_NOMINAL_S / ((self._last + ref) / 2)
        self._last = ref
        return factor


def summarize(latencies) -> dict:
    """Median and 90th percentile of per-operation times, and throughput.

    Throughput is operations per second of busy time, taken as the median
    over ``BLOCKS`` consecutive blocks of operations, so that one stall
    moves one block and not the whole figure.
    """
    n = len(latencies)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    blocks = min(BLOCKS, n)
    rates = []
    for b in range(blocks):
        chunk = latencies[b * n // blocks:(b + 1) * n // blocks]
        rates.append(len(chunk) / sum(chunk))
    return {"n": n, "p50": deciles[4], "p90": deciles[8], "ops_per_s": statistics.median(rates)}
