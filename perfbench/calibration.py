"""Host-speed probe: converts wall time into reference seconds.

The benchmark shares a 2-CPU virtual machine with other tenants, and the
machine's speed drifts by up to 2x over minutes while staying steady over a
second or two. A fixed probe kernel, independent of psverify, is timed between
operations; wall time is rescaled by REFERENCE_PROBE_S over the probe's
recent median, so a figure reads as if the probe had taken REFERENCE_PROBE_S.
Raw wall figures are kept in the run record beside the rescaled ones.
"""

import statistics
from time import perf_counter

import numpy as np

REFERENCE_PROBE_S = 0.004  # nominal probe time; the scale of every rescaled figure
PROBE_EVERY_S = 0.2        # one probe per this much operation time
LOCAL_PROBES = 9           # probes in the moving median for one operation


def probe_kernel():
    """Interpreter-bound loop plus small numpy calls, as in the pipeline."""
    total = 0
    for i in range(30000):
        total += i * i
    x = np.arange(2048.0)
    for _ in range(100):
        x = np.sqrt(x * x + 1.0)
    return total, x


class HostClock:
    def __init__(self):
        self.probes = []

    def probe(self, n: int = 1) -> None:
        for _ in range(n):
            start = perf_counter()
            probe_kernel()
            self.probes.append(perf_counter() - start)

    def scale(self, window: int = LOCAL_PROBES) -> float:
        """Reference seconds per wall second, from the last `window` probes."""
        return REFERENCE_PROBE_S / statistics.median(self.probes[-window:])

    def timed(self, fn, *args):
        """Run fn between probes; returns (result, wall_s, reference_s)."""
        self.probe(LOCAL_PROBES // 2 + 1)
        start = perf_counter()
        value = fn(*args)
        wall = perf_counter() - start
        self.probe(LOCAL_PROBES // 2 + 1)
        return value, wall, wall * self.scale(2 * (LOCAL_PROBES // 2 + 1))
