"""Machine-speed correction for wall times on a shared host.

On a few cores of a shared host the same code runs up to three times slower
in some minutes than in others (other tenants' load on the cores and
caches), and the drift is slower than a benchmark run, so medians of wall
times move from run to run by as much as a regression would. ``SpeedProbe``
samples the speed of the host while the workload runs: every ``INTERVAL``
seconds a SIGALRM handler times a fixed probe of the four kinds of work
spinemetric does: an interpreter loop, one 192x192 float32 matmul, a sum
over 4 MB (more than a core's L2 cache) and small-array ufunc calls.
``reference_seconds(a, b)`` turns the wall interval ``[a, b]`` into the
seconds its work takes when the probe takes ``PROBE_REF_S``: each stretch
of program time between two probes is scaled by ``PROBE_REF_S`` over the
probe that ends it, and probe time is left out. The probes add about 4%
to the wall time.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL = 0.05
# Probe seconds at the reference speed: about the fast state of a 2-vCPU
# Xeon (Sapphire Rapids) KVM guest with Python 3.11 and single-threaded
# OpenBLAS 0.3.31.
PROBE_REF_S = 0.0016
_LOOPS = 6000
_MATMUL_SIDE = 192
_STREAM_FLOATS = 1 << 20
_UFUNC_CALLS = 100


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        rng = np.random.default_rng(0)
        self._matrix = rng.random((_MATMUL_SIDE, _MATMUL_SIDE), dtype=np.float32)
        self._stream = rng.random(_STREAM_FLOATS, dtype=np.float32)
        self._small = rng.random(64, dtype=np.float32)
        self._busy = False

    def probe(self, *_signal_args) -> None:
        if self._busy:  # the timer fired again while this probe ran
            return
        self._busy = True
        t0 = time.perf_counter()
        x = 0
        for i in range(_LOOPS):
            x += i & 7
        self._matrix @ self._matrix
        self._stream.sum()
        a = self._small
        for _ in range(_UFUNC_CALLS):
            np.tanh(a) * a + 1.0
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.probe)
        signal.siginterrupt(signal.SIGALRM, False)  # system calls resume after a probe
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, a: float, b: float) -> float:
        """Seconds the program's work between wall times ``a`` and ``b``
        takes at the reference speed; ``b - a`` before the first probe."""
        if not self.starts:
            return b - a
        i = bisect.bisect_left(self.starts, a)
        total, prev_end = 0.0, a
        while i < len(self.starts) and self.starts[i] < b:
            total += max(self.starts[i] - prev_end, 0.0) * PROBE_REF_S / self.seconds[i]
            prev_end = self.starts[i] + self.seconds[i]
            i += 1
        # The stretch after the last probe in [a, b] is scaled by the next
        # probe after b, or by the last one there is.
        last = self.seconds[min(i, len(self.seconds) - 1)]
        return total + max(b - prev_end, 0.0) * PROBE_REF_S / last
