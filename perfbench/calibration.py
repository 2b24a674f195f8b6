"""Host-speed calibration for the benchmark's timings.

On a shared host the same solve of the same input, with the same seed,
takes anywhere from 2.8 s to 4.8 s: co-tenants slow the processor, for
seconds at a time.  A fixed calibration kernel timed next to the work
tracks that drift (correlation 0.93 with the hybrid's solve time in a
12-solve trial on a 2-core VM), so the benchmark reports each timing
scaled to the host speed at which the kernel takes :data:`REFERENCE_S`.
:class:`ScaledClock` pauses at the work's natural boundaries (EA
generations, scheduler windows) at least every :data:`SEGMENT_S`
seconds, times the kernel, and scales each segment by the kernel times
on either side of it; in a trial of eight 800x1600 NSGA-III solves this
cut the spread of the scaled time to 3.0% against 5.2% unscaled, where
one kernel run before and after the whole solve gave 8.1%.

The kernel mixes what the program does — Python-level loops over small
NumPy arrays, as in tabu repair, and large flat-index scatters, as in
population evaluation — and uses nothing from the program, so no change
to the program can move it.  Raw wall times are kept next to the scaled
ones.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds the kernel takes at the reference host speed.
REFERENCE_S = 0.045

#: Shortest stretch of work between two kernel runs.
SEGMENT_S = 0.5

_rng = np.random.default_rng(12345)
_SMALL_INDEX = _rng.integers(0, 200, 400)
_SMALL_LIMIT = _rng.random((200, 8)) * 3
_BIG = (_rng.integers(0, 800, (100, 1600)) + np.arange(100)[:, None] * 800).ravel()
_WEIGHTS = _rng.random(_BIG.size)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    start = time.perf_counter()
    for _ in range(2000):
        usage = np.bincount(_SMALL_INDEX, minlength=200)
        total = 0
        for j in range(40):
            total += j * j
        (usage[:, None] > _SMALL_LIMIT).any(axis=1)
    for _ in range(30):
        np.bincount(_BIG, weights=_WEIGHTS, minlength=80_000)
    return time.perf_counter() - start


class ScaledClock:
    """Stopwatch whose reading is scaled to the reference host speed.

    ``start()`` and ``stop()`` bracket one timed stretch; ``tick()`` marks
    a boundary inside it where the work may pause for a kernel run.  The
    kernel's own time is never counted.
    """

    def __init__(self) -> None:
        self._kernel = kernel_seconds()
        self.wall = 0.0
        self.scaled = 0.0
        self._pending = 0.0
        self._since: float | None = None

    def start(self) -> None:
        self.wall = self.scaled = self._pending = 0.0
        self._since = time.perf_counter()

    def tick(self, force: bool = False) -> float:
        """Boundary of the work; returns the scaled time so far."""
        now = time.perf_counter()
        self._pending += now - self._since
        if force or self._pending >= SEGMENT_S:
            kernel = kernel_seconds()
            self.wall += self._pending
            self.scaled += self._pending * 2 * REFERENCE_S / (self._kernel + kernel)
            self._kernel, self._pending = kernel, 0.0
            now = time.perf_counter()
        self._since = now
        return self.scaled

    def stop(self) -> tuple[float, float]:
        """End the stretch; returns (scaled, wall) seconds."""
        self.tick(force=True)
        self._since = None
        return self.scaled, self.wall
