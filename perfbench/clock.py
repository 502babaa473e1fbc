"""Operation times in reference seconds.

The cores this benchmark runs on are shared, and other work on them slows
the package down by up to 1.7x. The slowdown comes and goes from one part
of a second to the next and holds for seconds to minutes at a level that
differs from run to run, so raw wall times of identical work spread by a
third between runs. A fixed reference kernel that never calls vixpricer is
therefore run on a wall-clock timer every ``PROBE_INTERVAL_S``, between
calls and inside them (the timer's signal handler runs it wherever the
interpreter is): scaled Bessel evaluations over an array, as in the
transition density, and an interpreter loop, as in the solver and
quadrature loops. A call's reference time is its wall time less the kernel
runs inside it, scaled by the kernel's reference time over the mean of its
runs within ``WINDOW_S`` of the call's midpoint, or during the call if it
is longer. A change to vixpricer changes the calls' wall times and not the
kernel's, so it shows in full.
"""

import bisect
import signal
import statistics
import time

import numpy as np
from scipy import special

# about the kernel's time on the 2-core x86_64 machine the benchmark was
# built on, when nothing else slowed it down
REFERENCE_S = 0.012
PROBE_INTERVAL_S = 0.25
WINDOW_S = 3.0

_ABSCISSAE = np.linspace(0.5, 60.0, 10_000)


def _kernel():
    total = 0.0
    for order in (0.5, 2.3, 7.1):
        total += float(np.log(special.ive(order, _ABSCISSAE)).sum())
    for i in range(10_000):
        total += i * 1e-9
    return total


class Probes:
    """Runs of the reference kernel on a timer: their start times and durations.

    Use as a context manager; the timer runs inside the ``with`` block.
    """

    def __init__(self):
        _kernel()  # SciPy's first calls, untimed
        self.starts, self.times = [], []

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _take(self, signum, frame):
        start = time.perf_counter()
        _kernel()
        self.starts.append(start)
        self.times.append(time.perf_counter() - start)

    def _between(self, lo, hi):
        return slice(bisect.bisect_left(self.starts, lo), bisect.bisect_left(self.starts, hi))

    def reference_s(self, start, end):
        """Reference seconds of a call that ran from ``start`` to ``end``."""
        own = sum(self.times[self._between(start, end)])
        mid = 0.5 * (start + end)
        near = self.times[self._between(min(start, mid - WINDOW_S), max(end, mid + WINDOW_S))]
        return (end - start - own) * REFERENCE_S / statistics.fmean(near)
