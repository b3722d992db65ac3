"""Speed probe: a small fixed piece of work that tracks how fast the machine runs.

On a shared virtual machine the same round can take half as long again a
few seconds later, with the program unchanged.  ``probe()`` does a fixed mix
of the work the two chains do (2048-bit mpmath arithmetic, complex
arithmetic in Python, arithmetic on numpy scalars) and returns its time.

A :class:`Prober` runs the probe every ``INTERVAL_S`` seconds of wall time,
from a timer signal, whatever the program is doing; an untraced run scales
each round's time by ``PROBE_REF_S / mean probe of that round``: the time
the round would take on a machine on which one probe takes ``PROBE_REF_S``.
The probe uses no ``hplab`` code and changes no state that the program
reads, so a change to ``hplab`` leaves it unchanged.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from mpmath import libmp

# about the median probe time on the reference machine (see README.md)
PROBE_REF_S = 0.005
INTERVAL_S = 0.2

_PREC = 2048
_RND = libmp.round_nearest
_X = libmp.mpf_sqrt(libmp.from_int(2), _PREC, _RND)
_Y = libmp.mpf_sqrt(libmp.from_int(3), _PREC, _RND)
_ONE = libmp.from_int(1)
_ROOTS = np.array([0.3 + 0.1j, -0.5 - 0.25j, 1.2 + 0.0j, -0.8 + 0.6j])


def probe() -> float:
    t = time.perf_counter()
    acc = libmp.fzero
    for _ in range(150):
        q = libmp.mpf_div(libmp.mpf_mul(_X, _Y, _PREC, _RND),
                          libmp.mpf_add(acc, _ONE, _PREC, _RND), _PREC, _RND)
        acc = libmp.mpf_add(acc, q, _PREC, _RND)
    z = 0.1 + 0.2j
    for i in range(750):
        z = z * 0.999 + 1.0 / (z - _ROOTS[i & 3])
    w = 0j
    for i in range(7500):
        w = w * 0.999 + 1j * (i & 3)
    return time.perf_counter() - t


class Prober:
    """Runs :func:`probe` from a SIGALRM timer while started; keeps the start
    and duration of each probe."""

    def __init__(self):
        self.times = []

    def _tick(self, signum, frame):
        self.times.append((time.perf_counter(), probe()))

    def between(self, t0: float, t1: float) -> list:
        """Times of the probes started between ``t0`` and ``t1``."""
        return [d for t, d in self.times if t0 <= t < t1]

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
