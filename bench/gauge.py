"""Speed gauge: a fixed piece of the library's kind of work, frozen.

A core of a shared host changes speed, by up to a factor of two and
often within a second, as other tenants load the host, and the CPU time
of a computation changes with it.  Sampler runs gauge() every
EVERY_S of CPU time, during trials too, and the worker scales each
trial's CPU time by the mean speed the samples taken around it saw.

The gauge is a frozen copy of the Z/p^n row echelon and Howell form of
`derived_heights.linalg` as it was when the benchmark was written,
applied to fixed matrices.  It does the same kind of work as the
library's hot path (interpreted pivot search, small int64 numpy row
operations), so a host that slows the library slows the gauge about as
much; tiny interpreted loops or memory walks tracked the library far
worse.  It never imports the package, so no change to the library can
move it.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

import numpy as np

REF_S = 0.001    # CPU seconds of one gauge() on a core of reference speed
EVERY_S = 0.025  # CPU seconds between samples
MIN_SAMPLES = 3  # samples that set the speed of an interval, at least

# (p, n, rows, cols): rings the workloads use, widths of their expanded matrices
_SHAPES = ((3, 2, 10, 18), (5, 1, 6, 20), (7, 1, 6, 14), (3, 1, 8, 12))


def _matrices():
    # half the entries multiples of p, so that pivots of positive
    # valuation and the Howell closure loop occur as in the workloads
    rnd = random.Random(20261018)
    return [(np.array([[rnd.randrange(p ** n) * rnd.choice((1, p)) % p ** n for _ in range(c)]
                       for _ in range(r)], dtype=np.int64), p, n) for p, n, r, c in _SHAPES]


_MATRICES = _matrices()


def _valuation(x: int, p: int, n: int) -> int:
    if x % p ** n == 0:
        return n
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _echelon(rows, cols, p, n):
    m = p ** n
    active = [r for r in rows if r.any()]
    placed, pivots = [], []
    for col in range(cols):
        if not active:
            break
        best, best_v = -1, n + 1
        for i, r in enumerate(active):
            e = int(r[col])
            if e == 0:
                continue
            v = _valuation(e, p, n)
            if v < best_v:
                best_v, best = v, i
        if best < 0:
            continue
        row = active.pop(best)
        unit = int(row[col]) // p ** best_v
        row = (row * pow(unit, -1, m)) % m
        pv = p ** best_v
        for i, r in enumerate(active):
            e = int(r[col])
            if e:
                active[i] = (r - (e // pv) * row) % m
        active = [r for r in active if r.any()]
        placed.append(row)
        pivots.append((col, best_v))
    return placed, pivots


def _howell(a, p, n):
    m = p ** n
    cols = a.shape[1]
    placed, pivots = _echelon([r.copy() for r in a % m if r.any()], cols, p, n)
    while True:
        extra = [ann for row, (_, v) in zip(placed, pivots) if v > 0
                 for ann in [(row * p ** (n - v)) % m] if ann.any()]
        if not extra:
            break
        new_placed, new_pivots = _echelon(placed + extra, cols, p, n)
        if new_pivots == pivots and all((x == y).all() for x, y in zip(new_placed, placed)):
            break
        placed, pivots = new_placed, new_pivots
    for i, (col, v) in enumerate(pivots):
        for j in range(i):
            q = int(placed[j][col]) // p ** v
            if q:
                placed[j] = (placed[j] - q * placed[i]) % m
    return placed


def gauge() -> int:
    """Howell forms of the fixed matrices; returns the total rank."""
    return sum(len(_howell(a, p, n)) for a, p, n in _MATRICES)


def gauge_s() -> float:
    """CPU seconds of one gauge() in this thread."""
    t0 = time.thread_time()
    gauge()
    return time.thread_time() - t0


class Sampler:
    """Samples the speed of the core from a SIGVTALRM handler.

    A sample is REF_S over the faster of two back-to-back gauge() runs
    (the first may find its code and data evicted).  cpu() is a clock of
    this thread's CPU time without the time spent sampling.
    """

    def __init__(self):
        self.speeds: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        t0 = time.thread_time()
        self.speeds.append(REF_S / min(gauge_s(), gauge_s()))
        self.spent += time.thread_time() - t0

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def cpu(self) -> float:
        while True:  # retry if a sample ran in between the two reads
            spent = self.spent
            now = time.thread_time()
            if self.spent == spent:
                return now - spent

    def speed(self, lo: int, hi: int) -> float:
        """Mean speed of samples lo..hi-1, widened on both sides to
        MIN_SAMPLES; the mean, because a long trial may see the core
        at two speeds for different shares of its time."""
        while hi - lo < MIN_SAMPLES:
            if hi - lo >= len(self.speeds):
                self.sample()
            if lo > 0:
                lo -= 1
            if hi - lo < MIN_SAMPLES and hi < len(self.speeds):
                hi += 1
        return statistics.fmean(self.speeds[lo:hi])
