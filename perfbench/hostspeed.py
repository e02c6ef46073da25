"""Host-speed sampling, so that end-to-end times can be scaled to a
reference speed.

The hosts this benchmark runs on share their cores and memory with
other machines.  Their speed drifts by 20-40 % over seconds to minutes,
and every workload slows down together, so a raw wall time depends on
when it was taken.  While a run measures, a SIGALRM every PERIOD_S runs
one fixed chunk of calibration work: products of exact rationals (the
package's own arithmetic) at shuffled positions of a pool several MB
large, so that memory latency counts as it does in the jobs.  The chunk
uses only the standard library, so no change to the package can change
its cost.

A timed interval is scaled by the chunks that ran inside it: the work
done at slowness s(t) = chunk time / REFERENCE_CHUNK_S over dt is worth
dt / s(t) at the reference speed, so

    scaled time = interval * mean(REFERENCE_CHUNK_S / chunk time)

over the chunks of the interval (the last MIN_CHUNKS chunks when the
interval holds fewer).  Time spent inside chunks is left out of every
interval.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1
POOL_SIZE = 50_000
CHUNK_PRODUCTS = 1_000
REFERENCE_CHUNK_S = 0.003
MIN_CHUNKS = 5


class WallTimer:
    """Unscaled timer with the same interface as SpeedSampler."""

    now = staticmethod(time.perf_counter)

    def since(self, t0: float) -> float:
        return time.perf_counter() - t0


class SpeedSampler:
    """Context manager that samples host speed; `now` and `since` time
    intervals in reference-speed seconds."""

    def __init__(self) -> None:
        rng = random.Random(20240901)  # fixed: the calibration work never changes
        self._pool = [Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(POOL_SIZE)]
        self._order = list(range(POOL_SIZE))
        rng.shuffle(self._order)
        self._next = 0
        self._spent = 0.0
        self._previous = None
        self.ticks: list[float] = []   # now() at the end of each chunk
        self.speeds: list[float] = []  # REFERENCE_CHUNK_S / chunk time

    def _chunk(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection inside the chunk would time the job's heap, not the host
        t0 = time.perf_counter()
        pool, order, start = self._pool, self._order, self._next
        for k in range(start, start + CHUNK_PRODUCTS):
            pool[order[k % POOL_SIZE]] * pool[order[(k + POOL_SIZE // 2) % POOL_SIZE]]
        elapsed = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self._next = (start + CHUNK_PRODUCTS) % POOL_SIZE
        self._spent += elapsed
        self.ticks.append(self.now())
        self.speeds.append(REFERENCE_CHUNK_S / elapsed)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._chunk)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        """perf_counter without the time spent in calibration chunks."""
        return time.perf_counter() - self._spent

    def since(self, t0: float) -> float:
        """Reference-speed seconds from t0 (a `now()` value) to now."""
        t1 = self.now()
        inside = [s for t, s in zip(self.ticks, self.speeds) if t >= t0]
        if len(inside) < MIN_CHUNKS:
            inside = self.speeds[-MIN_CHUNKS:]
        return (t1 - t0) * (statistics.fmean(inside) if inside else 1.0)

    def mean_scale(self) -> float:
        return statistics.fmean(self.speeds) if self.speeds else 1.0
