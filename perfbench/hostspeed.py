"""Host speed, sampled while the benchmark runs.

The cores are shared with other tenants: identical work took from 1x to
1.8x as long from one minute to the next, and the speed switches within
seconds.  A wall-clock timer interrupts the run every INTERVAL_S and times
a short fixed pure-Python loop in the main thread.  ``scaled`` turns the
wall time of a unit of work into its time at the host speed where that
loop takes REFERENCE_S, from the samples taken while the unit ran.  The
sampling costs under 1% of the run, the same share in every run.

The scaled times assume that the program slows down in step with the
probe, a pure-Python loop.  Python runs the signal handler only between
bytecodes, so a sample due during a long C or numpy call is taken when
the call returns, and the samples due meanwhile collapse into one.  A
change that moves work into or out of C can therefore shift which
samples fall in a unit.  Every run prints its wall times, and the traced
run reports them as ``trace.setup_wall_s`` and ``trace.session_wall_s``,
so a change seen in scaled time can be checked against wall time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.1
PROBE_LOOPS = 3000
REFERENCE_S = 0.0004


def probe() -> float:
    """Wall time of a fixed pure-Python loop."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(PROBE_LOOPS):
        total += i * i
        table[i & 255] = total
    return time.perf_counter() - start


class HostMeter:
    def __init__(self):
        self.times = []  # perf_counter at each sample
        self.speeds = []  # REFERENCE_S / probe time: 1 at reference speed

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self):
        speed = REFERENCE_S / probe()
        self.times.append(time.perf_counter())
        self.speeds.append(speed)

    def scaled(self, start: float, end: float) -> float:
        """Seconds at reference speed for the work done in [start, end]:
        the wall time times the mean speed sampled in it, without the
        fastest and slowest fifth of the samples (a sample can be
        preempted).  A unit too short to hold a sample takes the last
        sample before its end."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        window = sorted(self.speeds[lo:hi]) or [self.speeds[max(hi - 1, 0)]]
        trim = len(window) // 5
        return (end - start) * statistics.mean(window[trim:len(window) - trim])
