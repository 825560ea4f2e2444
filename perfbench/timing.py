"""Job timing in reference seconds.

The benchmark shares its CPU core with other tenants, whose load slows
all interpreter work down by up to a factor of two for seconds at a
time.  So next to the jobs it times ``probe``, a fixed piece of
interpreter work of the same kind as the library's (Fraction sums,
tuple and dict churn), and reports every time scaled by
``PROBE_REF_S / probe time``: the time the work would take where the
probe takes PROBE_REF_S.  A change to stci moves the jobs and not the
probe, so it shows in full.
"""

from __future__ import annotations

import statistics
import time
from array import array
from fractions import Fraction

PROBE_REF_S = 0.002
# A probe runs whenever this much time has passed since the last one,
# and after the last job of a pass.
PROBE_EVERY_S = 0.02


def probe() -> float:
    start = time.perf_counter()
    total, seen = Fraction(0), {}
    for k in range(1, 400):
        total += Fraction(k % 7 + 1, k * (k + 1))
        seen[k % 13] = seen.get(k % 13, ()) + (k,)
    return time.perf_counter() - start


class Scaler:
    """Collects a pass's job wall times and scales them segment by segment.

    A segment is the jobs between two probes; its jobs are scaled by
    PROBE_REF_S over the mean of those two probe times.
    """

    def __init__(self, jobs: int) -> None:
        self.times = array("d", bytes(8 * jobs))
        self._left = jobs
        self._segment: list[tuple[int, float]] = []
        self.probes = [probe()]
        self._next = time.perf_counter() + PROBE_EVERY_S

    def record(self, j: int, seconds: float) -> None:
        """Job ``j`` took ``seconds`` of wall time; call once per job."""
        self._segment.append((j, seconds))
        self._left -= 1
        if not self._left or time.perf_counter() >= self._next:
            self.probes.append(probe())
            scale = 2 * PROBE_REF_S / (self.probes[-2] + self.probes[-1])
            for i, raw in self._segment:
                self.times[i] = raw * scale
            self._segment.clear()
            self._next = time.perf_counter() + PROBE_EVERY_S

    @property
    def scale(self) -> float:
        """One factor for the whole pass, for times not tied to one job."""
        return PROBE_REF_S / statistics.median(self.probes)


def timed(fn, *args):
    """(result, reference seconds) of ``fn(*args)``, probing on both sides."""
    before = probe()
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    return result, elapsed * 2 * PROBE_REF_S / (before + probe())
