"""A fixed pure-Python probe of the machine's current speed.

On a shared host the speed of one core drifts by up to 2x, in spells that
last from a second to several minutes, as other tenants load the same
physical cores, so that two sets of runs of the same code can differ by
more than any useful bound.  The benchmark therefore times this probe
between verdicts and around every set-up, and scales each measured time by
``(NOMINAL_PROBE_MS / probe time) ** ELASTICITY``: a time is reported as
it would read on a machine where the probe takes ``NOMINAL_PROBE_MS``.
The probe does the kind of work heckeforge does (small objects, method
calls, dict updates, modular int arithmetic, a sort).  It imports nothing
from heckeforge, and runs with the cyclic garbage collector paused, so its
time does not depend on the program's heap.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# the probe's time on an Intel Xeon at 2.1 GHz (2 vCPUs of a shared host)
# with CPython 3, outside its slow spells
NOMINAL_PROBE_MS = 1.0

# a measurement is scaled by the median probe time within this many seconds
# of it, which follows the slow spells but not the jitter of single probes
WINDOW_S = 2.0

# A slow spell that lengthens the probe by a factor f lengthens heckeforge's
# work by about f ** ELASTICITY.  Fitted on this host over 16 runs of each
# workload, in spells where the probe took 1 to 2.1 ms, the exponent of the
# raw metrics lay between 0.5 and 1.0 (hecke's pure-Python normal forms
# highest); 0.8 leaves every end-to-end metric's residual dependence on the
# probe time within an exponent of +-0.15.
ELASTICITY = 0.8

_MODULUS = 1000003


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def mul(self, other):
        return _Pair((self.a * other.a + 2 * self.b * other.b) % _MODULUS,
                     (self.a * other.b + self.b * other.a) % _MODULUS)


def _work():
    acc = {}
    t = _Pair(3, 5)
    for i in range(1200):
        t = t.mul(_Pair(i, i + 1))
        key = (t.a & 63, t.b & 7)
        acc[key] = acc.get(key, 0) + i
    return sorted(acc.items(), key=lambda kv: kv[1])[-1]


def probe_ms():
    """Time one run of the probe, in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return (time.perf_counter() - t0) * 1000.0
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Probe times on the ``time.perf_counter`` clock, and the factor they
    give for scaling a measurement taken between two of them."""

    def __init__(self, window_s=WINDOW_S):
        self.window_s = window_s
        self.times = []   # start of each probe, ascending
        self.probes = []  # its time in ms

    def probe(self):
        self.times.append(time.perf_counter())
        self.probes.append(probe_ms())

    def factor(self, t0, t1):
        """``NOMINAL_PROBE_MS`` over the median time of the probes in the
        window around [t0, t1], to the power ``ELASTICITY``.  The window
        always holds the last probe before t0 and the first after t1; both
        must exist."""
        lo = min(bisect.bisect_left(self.times, t0 - self.window_s),
                 bisect.bisect_right(self.times, t0) - 1)
        hi = max(bisect.bisect_right(self.times, t1 + self.window_s),
                 bisect.bisect_left(self.times, t1) + 1)
        return (NOMINAL_PROBE_MS
                / statistics.median(self.probes[lo:hi])) ** ELASTICITY
