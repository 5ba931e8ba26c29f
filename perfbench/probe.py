"""Host-speed probe timed while every benchmarked CLI call runs.

On a shared host the speed of a core drifts by tens of percent within
minutes: the same `reconstruct` call measured 3.1 s and then 1.7 s two
minutes later, in phases longer than a benchmark run. The child process
therefore times a small fixed piece of work (`Probe.sample`) several
times right after set-up, then every INTERVAL_S seconds of the call from
a SIGALRM handler, and once after the call. The handler's time is
subtracted from the call's wall time, and run.py scales the call's times
by REFERENCE_S / (mean sample time): seconds at the reference host
speed. The raw times are printed next to them.

The probe mixes the program's two kinds of hot code, sparse LU solves
and interpreted Python loops, and calls nothing from sparseheat, so a
change to the program cannot move it.
"""

import signal
import statistics
import time

# Median sample time on the reference host (2-core KVM Xeon, Python
# 3.11, numpy 2.4, scipy 1.17). It only sets the scale of the reported times.
REFERENCE_S = 0.011
INTERVAL_S = 0.5
SETUP_SAMPLES = 5


class Probe:
    """Fixed work plus the list of its timed samples in one process."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        n = 64
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        mat = sp.kron(eye, lap) + sp.kron(lap, eye) + 0.1 * sp.identity(n * n)
        self._np = np
        self._lu = spla.splu(mat.tocsc())
        self._b = np.ones(n * n)
        self.samples = []
        self._in_call_s = 0.0

    def sample(self):
        """Time the fixed work once; returns the seconds it took."""
        t = time.perf_counter()
        b = self._b
        for _ in range(10):
            b = self._lu.solve(b)
            b /= self._np.abs(b).max()
        s = 0.0
        for i in range(50_000):
            s += (i * 0.5) % 3.0
        elapsed = time.perf_counter() - t
        self.samples.append(elapsed)
        return elapsed

    def _tick(self, signum, frame):
        self._in_call_s += self.sample()

    def time_call(self, fn, *args):
        """Run fn(*args) with probe ticks; returns (result, seconds without ticks)."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._in_call_s = 0.0
        t = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            elapsed = time.perf_counter() - t - self._in_call_s
        self.sample()
        return result, elapsed


def scale(samples, setup=False):
    """Factor that turns raw seconds into seconds at the reference speed:
    the set-up samples for set-up time, all samples for a call."""
    used = samples[:SETUP_SAMPLES] if setup else samples
    return REFERENCE_S / statistics.fmean(used)
