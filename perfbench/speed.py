"""How fast the host runs this process right now, measured by a fixed probe.

The host is shared: for seconds to minutes at a time, load from outside
the process slows it, in CPU time as well as in wall time.  The probe is
a fixed piece of work that does what varcong's hot paths do (union-find
in pure Python on small lists, and numpy calls on small arrays: `unique`,
`argsort`, `cumsum`), written apart from varcong so that a change to the
program does not change it.

A Prober runs the probe from a SIGPROF timer every EVERY CPU seconds
while an operation runs, so that a slow spell that starts or ends inside
a long operation is seen inside it.  Each sample is placed on the round's
timeline of operation CPU time; the time the probes take is kept out of
the operations' times and out of the tracer's clock.  scale() turns each
operation's CPU time into its time at the speed where a sample takes
REFERENCE_S.
"""

import random
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

# the median sample during operations on a quiet host (2-CPU Intel Xeon VM,
# Python 3.11, numpy 2); a constant, so it only sets the scale of the times
REFERENCE_S = 0.0031

# CPU seconds of operations between two samples, and the reach on either
# side of a point of the timeline of the samples whose median is the
# host's speed there
EVERY = 0.25
WINDOW = 2.0

# kernel runs per sample; the sample is the least, so the first run's
# cache misses on the operation's heap do not count
REPEATS = 2

_rng = random.Random(20240308)
_N = 100
_PAIRS = [(_rng.randrange(_N), _rng.randrange(_N)) for _ in range(5000)]
_ARRAYS = [np.array([_rng.randrange(12) for _ in range(40)]) for _ in range(100)]


def _kernel():
    parent = list(range(_N))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k, (x, y) in enumerate(_PAIRS):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
        if k % 100 == 99:
            parent = list(range(_N))
    total = 0
    for arr in _ARRAYS:
        values, first = np.unique(arr, return_index=True)
        order = np.argsort(first, kind="stable")
        total += int(np.cumsum(values[order])[-1])
    return total


def probe():
    """One sample: CPU seconds of this thread for the kernel, least of
    REPEATS runs."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.thread_time()
        _kernel()
        best = min(best, time.thread_time() - start)
    return best


class Prober:
    """Samples the probe during operations, from a SIGPROF interval timer.

    Between arm() and disarm() the timer fires every EVERY CPU seconds of
    the process and the handler runs the probe (Python runs the handler
    in the main thread, between bytecodes of the operation).  Time left
    on the timer carries over from one operation to the next, so short
    operations are sampled too.  A round with no sample gets one at its
    end (finish_round).
    """

    def __init__(self):
        self.samples = []        # (round CPU position, probe seconds)
        self.rounds = []         # the samples of every round so far
        self.probe_wall = 0.0    # wall seconds inside probes, this process
        self.armed = False
        self.remaining = EVERY
        signal.signal(signal.SIGPROF, self._on_timer)

    def clock(self):
        """perf_counter with the time spent in probes taken out."""
        return time.perf_counter() - self.probe_wall

    def start_round(self):
        self.samples = []
        self.rounds.append(self.samples)

    def arm(self, position):
        """Start sampling an operation that begins at `position` (CPU
        seconds of the round's operations before it)."""
        self.position, self.op_cpu, self.op_wall = position, 0.0, 0.0
        self.start_cpu = time.thread_time()
        self.armed = True
        signal.setitimer(signal.ITIMER_PROF, self.remaining, EVERY)

    def disarm(self):
        """Stop sampling; return the CPU and wall seconds the probes took
        inside the operation."""
        left = signal.setitimer(signal.ITIMER_PROF, 0)[0]
        self.armed = False
        self.remaining = left if left > 0 else EVERY
        return self.op_cpu, self.op_wall

    def _on_timer(self, signum, frame):
        if not self.armed:  # delivered after disarm, or inside a probe
            return
        self.armed = False
        wall, cpu = time.perf_counter(), time.thread_time()
        at = self.position + cpu - self.start_cpu - self.op_cpu
        seconds = probe()
        self.samples.append((at, seconds))
        self.op_cpu += time.thread_time() - cpu
        spent = time.perf_counter() - wall
        self.op_wall += spent
        self.probe_wall += spent
        self.armed = True

    def finish_round(self, position):
        """The round's samples; one taken now if it has none."""
        if not self.samples:
            wall = time.perf_counter()
            self.samples.append((position, probe()))
            self.probe_wall += time.perf_counter() - wall
        return self.samples


def scale(ops, samples):
    """Set each operation's "seconds": its CPU time at the speed where a
    sample takes REFERENCE_S.  The operation is cut at the samples taken
    inside it, and each piece is scaled by the host's speed at its middle:
    the median of the samples within WINDOW of it.  A slow spell that
    begins inside a long operation so slows only the pieces after it.
    "probe_s" is the speed at the operation's middle, for the detail file.
    """
    at = [position for position, _ in samples]
    seconds = [s for _, s in samples]

    def speed(t):
        return statistics.median(seconds[bisect_left(at, t - WINDOW):
                                         bisect_right(at, t + WINDOW)])

    for op in ops:
        start, end = op["at"], op["at"] + op["cpu_s"]
        cuts = [start, *at[bisect_right(at, start):bisect_left(at, end)], end]
        op["seconds"] = REFERENCE_S * sum((b - a) / speed((a + b) / 2)
                                          for a, b in zip(cuts, cuts[1:]))
        op["probe_s"] = speed((start + end) / 2)
