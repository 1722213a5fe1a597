"""Host speed during a measurement, from a fixed probe run on a timer.

On a shared machine the same work can take up to twice as long from one
second to the next, and a slow spell can last minutes, so the wall times of
whole runs spread far wider than the regressions the benchmark must catch.
Inside a `HostSpeed` block SIGALRM fires every `interval` seconds and times
a fixed pure-Python loop that touches nothing of frontlab.  Samples fall at
even wall-clock intervals, so their mean speed is the host's mean speed
over the block.  `reference_seconds` converts a wall time measured inside
the block to seconds at the reference speed, at which the probe takes
PROBE_REF_S, after taking out the time spent in the probe itself.

The conversion assumes that the probe, which runs on the measured process's
main thread, competes with nothing of that process: a second thread would
make the probe wait for the GIL or share the CPU, and read as a slow host.
`premise_problem` reports a block in which that did not hold.
"""

import signal
import statistics
import threading
import time

CPU_OVER_WALL_TOL = 0.03  # process CPU time may exceed wall time by this share

PROBE_LOOPS = 15000
PROBE_REF_S = 7.0e-4  # the probe's typical duration on a 2-vCPU x86 VM


def _probe():
    s = 0
    for k in range(PROBE_LOOPS):
        s += k
    return s


class HostSpeed:
    def __init__(self, interval):
        self.interval = interval
        self.durations = []
        self.spent = 0.0
        self.max_threads = 0

    def _sample(self, signum=None, frame=None):
        self.max_threads = max(self.max_threads, threading.active_count())
        start = time.perf_counter()
        _probe()
        took = time.perf_counter() - start
        self.durations.append(took)
        self.spent += took

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._start = (time.perf_counter(), time.process_time())
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._start[0]
        self.cpu = time.process_time() - self._start[1]
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.durations:  # a block shorter than one interval
            spent = self.spent
            self._sample()
            self.spent = spent

    def premise_problem(self):
        """Why the conversion does not hold for the block, or None."""
        if self.max_threads > 1:
            return f"{self.max_threads} Python threads ran during a timed block"
        if self.cpu > (1.0 + CPU_OVER_WALL_TOL) * self.wall:
            return (f"process CPU time {self.cpu!r} s exceeds wall time "
                    f"{self.wall!r} s in a timed block: the process ran threads")
        return None

    def speed(self):
        """Mean host speed over the block, relative to the reference."""
        return statistics.fmean(PROBE_REF_S / d for d in self.durations)

    def reference_seconds(self, wall):
        """`wall`, measured inside the block, at the reference host speed."""
        return (wall - self.spent) * self.speed()
