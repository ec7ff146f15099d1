"""Host speed probe: a fixed piece of work timed between sessions.

The benchmark shares a host whose speed drifts: the same code needs 16 ms
of CPU per frame in one half hour and 24 to 38 ms in the next, and all
three processes slow together. A bound of 25 % cannot judge code through
that. So between sessions, with no child alive, the benchmark times this
probe, and reports its time metrics at a reference speed:

    value at reference speed = measured value * REFERENCE_S / probe time

where the probe time is the lower quartile of the run's probe times. The probe uses
only numpy, zlib and the interpreter, never threecpt, so no change to the
program can move it. Its work is the same kind the pipeline does: whole-frame
numpy passes (repeat, cumsum, compare, copy), a checksum over a large
buffer, and interpreted Python.
"""

from __future__ import annotations

import statistics
import time
import zlib

import numpy as np

# lower quartile of the probe times on an uncontended 2-core AMD EPYC host;
# values at reference speed equal measured values on such a host
REFERENCE_S = 0.017
REPEATS = 5
_PASSES = 6
_PY_STEPS = 60_000


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)  # fixed: the same work on every run and seed
        self.frame = rng.integers(0, 256, size=(480, 640, 4), dtype=np.uint8)
        self.times_s: list[float] = []
        self._work()  # warm-up, untimed

    def run(self) -> list[float]:
        """Time the work REPEATS times; keep and return the wall times in seconds."""
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - t0)
        self.times_s += times
        return times

    def _work(self) -> None:
        f = self.frame
        for _ in range(_PASSES):
            up = f.repeat(2, axis=0).repeat(2, axis=1)
            zlib.adler32(up)
            np.cumsum(f, axis=1, dtype=np.uint8)
            flat = f.reshape(-1)
            np.flatnonzero(flat[1:] != flat[:-1])
            up.tobytes()
        acc = 0
        for i in range(_PY_STEPS):
            acc = (acc + i * i) & 0xFFFF

    def slowdown(self) -> float:
        """Lower quartile of the probe times over the reference: above 1 on
        a slow host. A short probe is slowed by every brief stall a session
        rides out, so the lower quartile, not the median, follows the
        sessions."""
        return statistics.quantiles(self.times_s, n=4)[0] / REFERENCE_S
