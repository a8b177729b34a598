"""Host-speed sampling, so that timings can be scaled to one reference speed.

The host this benchmark was built on runs the same code at speeds up to 2x
apart, in stretches of a second to minutes (see README, *Steadiness*). A
run's mean then follows the share of its time spent slow, which differs from
run to run. :class:`HostClock` measures that speed while the program runs: a
timer signal every ``PERIOD_S`` seconds runs a fixed kernel -- small NumPy
vector operations and Python float arithmetic, the kind of work the
solvers' per-shift updates do -- in the main thread, between the program's
bytecodes. A phase's time is then its wall time less the ticks inside it
(``net``), scaled by ``REF_TICK_S`` over the mean tick the phase saw.

A tick is gauged by the kernel's CPU time, not its wall time: when the
hypervisor takes the CPU away during a tick, its wall time grows by the
whole pause (up to 23 ms against 1.8 ms), and a few such ticks among a
phase's dozens would set their mean. The program's own pauses stay in its
wall time, as a user would see them.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05  # one tick every 50 ms of wall time
TICK_ITERS = 500  # kernel length: about 1.8 ms on the host above
REF_TICK_S = 0.002  # reference speed: the kernel takes this long

_X = np.linspace(0.0, 1.0, 512)


def kernel() -> float:
    """The fixed work one tick times."""
    y = np.ones(512)
    acc = 0.0
    for i in range(TICK_ITERS):
        y = 0.5 * (_X + y)
        acc += float(y[i & 511]) * 1e-3 + i
    return acc


class HostClock:
    """Context manager that ticks while it is entered."""

    def __init__(self):
        self.starts: list[float] = []  # wall clock
        self.walls: list[float] = []  # wall time of each tick, taken out of phases
        self.ticks: list[float] = []  # CPU time of each tick, the speed gauge
        self._previous = None

    def _tick(self, signum, frame):
        t0, c0 = time.perf_counter(), time.thread_time()
        kernel()
        self.ticks.append(time.thread_time() - c0)
        self.walls.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, windows, pooled: bool = False) -> tuple[float, float]:
        """Mean net time of the ``(start, wall)`` windows of one phase at
        the reference speed, and the mean tick it is scaled by: that of the
        ticks within the windows, or, with ``pooled`` or where the windows
        hold none, that of every tick of the run. Set-ups are pooled: each
        lasts milliseconds, so they hold few ticks of their own, and they
        are spread over the whole run. A tick runs in the main thread, so
        one that starts within a window also ends in it."""
        net, seen = [], []
        for start, wall in windows:
            lo = bisect.bisect_left(self.starts, start)
            hi = bisect.bisect_right(self.starts, start + wall)
            net.append(wall - sum(self.walls[lo:hi]))
            seen += self.ticks[lo:hi]
        tick = statistics.fmean(self.ticks if pooled or not seen else seen)
        return statistics.fmean(net) * REF_TICK_S / tick, tick
