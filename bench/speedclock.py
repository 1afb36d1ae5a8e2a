"""A clock that runs at the machine's momentary speed.

On a shared virtual machine the speed of one thread of Python and numpy code
moves by up to a factor of two within seconds, as other tenants come and go on
the same host core, and a given vCPU's speed is not the other vCPU's.  Wall
time then measures the host as much as the program: the same repetition took
3.5 s and 6.7 s a minute apart.

``SpeedClock`` interrupts the main thread every ``INTERVAL_S`` (SIGALRM) and
times a fixed probe there: a few small numpy gathers, reductions and
scatter-adds through the interpreter, the operations nanolab's inner loops are
made of, on data of its own.  The probe shares the thread and the core with
the code being measured, so it slows down when that code does.
``cost(a, b)`` is the wall time of ``[a, b]`` outside the probes, each stretch
divided by the probe time measured at its end (median of ``WINDOW`` probes
around it) and multiplied by ``PROBE_REF_S``: seconds at the speed at which
one probe takes ``PROBE_REF_S``.  A change to the program moves the cost
exactly as it moves the wall time; a change of host speed mostly does not.

The probe calls nothing from nanolab, so making nanolab faster cannot make the
probe faster.  It costs about 1 % of the thread's time (0.4-0.6 ms every 50 ms).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
WINDOW = 5
# A fixed scale, about the probe's median time on the machine the benchmark was
# tuned on (0.4-0.6 ms, depending on what the interrupted code left in cache).
# Costs compare between commits and between runs, not with wall seconds.
PROBE_REF_S = 0.5e-3

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((384, 3))
_I = _rng.integers(0, 384, 576)
_J = (_I + _rng.integers(1, 384, 576)) % 384  # never equal to _I: no zero distance


def _probe() -> float:
    total = 0.0
    for _ in range(2):
        d = _X[_I] - _X[_J]
        r = np.sqrt(np.einsum("ij,ij->i", d, d))
        u = d / r[:, None]
        g = np.zeros_like(_X)
        np.add.at(g, _I, u)
        np.subtract.at(g, _J, u)
        total += float(np.matmul(u[:, :, None], u[:, None, :]).sum(axis=0).trace()) + float(g[0, 0])
    return total


class SpeedClock:
    """Probe samples taken on SIGALRM while running; see the module docstring."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._old_handler = None

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _probe()
        self.ends.append(time.perf_counter())
        self.starts.append(start)

    def start(self) -> None:
        self._tick()  # at least one sample, whatever the length of the run
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self._old_handler is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._old_handler = None

    def probe_s(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def cost(self, a: float, b: float) -> float:
        """Seconds of [a, b] at the reference speed (``PROBE_REF_S`` per probe)."""
        probes = self.probe_s()
        half = WINDOW // 2
        k = bisect.bisect_left(self.starts, a)
        total, since = 0.0, a
        while True:
            j = min(k, len(probes) - 1)  # after the last probe, the last one's speed
            speed = statistics.median(probes[max(0, j - half):j + half + 1])
            if k >= len(self.starts) or self.starts[k] >= b:
                return (total + (b - since) / speed) * PROBE_REF_S
            total += (self.starts[k] - since) / speed
            since = self.ends[k]
            k += 1
