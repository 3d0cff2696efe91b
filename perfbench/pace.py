"""The host's pace: how long a fixed reference loop takes, sampled all
through a pass, and the scaling of a part's time to a fixed reference pace.

On a shared host the speed a process gets drifts by 40% or more over
minutes (the same suite pass read 6.9 s and 10.9 s of CPU time a few
minutes apart on the 2-vCPU VM the benchmark was written on, Intel Xeon
2.1 GHz, Python 3.11), and it changes from one second to the next within a
pass too. A minimum over passes only removes the short spells. So a paced
pass runs the reference loop, a couple of milliseconds of exact rational
arithmetic and dict stores that share no code with the package, from a
real-time timer signal every ``GAP_S``, with the garbage collector off so
that the package's heap does not slow it. A part's time, less the samples
taken inside it, is scaled by ``REF_*_S`` over the median loop time of the
samples taken inside it, or of the ``WINDOW`` samples nearest to it if it
is shorter. Interleaved that closely, the loop's time tracks the package's
own: over a minute in which a fixed slice of corpus checks took from 7.2
to 12.5 ms, its ratio to the loop stayed within 6.6 to 7.4. The figures
then read in seconds at the pace of a host on which the loop takes
``REF_WALL_S`` of wall and ``REF_CPU_S`` of CPU time: a change to the
package moves them, a slower host much less."""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# the reference loop's nominal time, in wall and in CPU seconds: its median
# on the VM above
REF_WALL_S = REF_CPU_S = 0.0017
# wall time between two samples; sampling costs about a tenth more
GAP_S = 0.02
# samples that give one part's pace
WINDOW = 7


def reference_loop() -> Fraction:
    """Fixed work of the kind the package does: Fraction arithmetic,
    comparisons and dict stores."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 200):
        f = Fraction(i, i + 7) * Fraction(3, i + 1)
        acc += f
        seen[i % 97] = f < acc
    return acc


class Pace:
    """Samples of the reference loop over one pass. As a context manager it
    takes a sample every ``GAP_S`` of wall time."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter at the sample's start
        self.wall: list[float] = []  # the loop's time
        self.cpu: list[float] = []
        self.cost_wall = [0.0]  # running totals of the time spent sampling
        self.cost_cpu = [0.0]
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # a timer signal that came during a sample
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        w0, c0 = time.perf_counter(), time.process_time()
        reference_loop()
        c1, w1 = time.process_time(), time.perf_counter()
        if collecting:
            gc.enable()
        self.at.append(w0)
        self.wall.append(w1 - w0)
        self.cpu.append(c1 - c0)
        self.cost_cpu.append(self.cost_cpu[-1] + time.process_time() - c0)
        self.cost_wall.append(self.cost_wall[-1] + time.perf_counter() - w0)
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, GAP_S, GAP_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factors(self, start: float | None = None,
                end: float | None = None) -> tuple[float, float]:
        """(wall, CPU) factors to the reference pace of the part between two
        perf_counter readings: over the samples taken in it if there are
        ``WINDOW`` of them, else over the ``WINDOW`` nearest to its middle;
        over all samples if no part is given."""
        if start is None:
            lo, hi = 0, len(self.at)
        else:
            lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_left(self.at, end)
            if hi - lo < WINDOW:
                i = bisect.bisect_left(self.at, (start + end) / 2)
                lo = max(0, min(i - WINDOW // 2, len(self.at) - WINDOW))
                hi = lo + WINDOW
        return (REF_WALL_S / statistics.median(self.wall[lo:hi]),
                REF_CPU_S / statistics.median(self.cpu[lo:hi]))

    def cost(self, start: float, end: float) -> tuple[float, float]:
        """(wall, CPU) time spent on samples taken between two perf_counter
        readings."""
        i, j = bisect.bisect_left(self.at, start), bisect.bisect_left(self.at, end)
        return (self.cost_wall[j] - self.cost_wall[i], self.cost_cpu[j] - self.cost_cpu[i])

