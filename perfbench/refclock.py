"""Host speed, sampled during a run with a fixed pure-Python reference loop.

The benchmark host is a small VM on a shared machine whose speed swings by
up to 2x within tenths of a second (a pure-Python loop that takes 66 ms at
one moment takes 130 ms a little later; CPU time moves with wall time, so
this is not time stolen from the VM but a slower CPU).  The ops that set a
latency percentile can all run within a second, so medians over a run do
not average that out.  Every end-to-end time is therefore also reported at
a fixed reference speed: every ``INTERVAL_S`` of wall time a SIGALRM
handler runs ``loop()`` once, between two bytecodes of whatever is running,
and records how long it took.  The loop's own time is taken out of every
time measured around it, and each op's latency is scaled by the mean speed,
``REF_LOOP_S / loop time``, of the samples taken during the op, or of the
few nearest to it when the op is shorter than that.

Why this is sound: a piece of work W done at speed v(t) takes a time T with
W = integral of v(t) dt over T = T * mean(v); samples spaced evenly in wall
time estimate mean(v), so T * mean(v) / v_ref is the time the same work
takes at the reference speed, whatever the host did meanwhile.  It holds to
the extent that randlab's code slows down with the host as the reference
loop does; both are pure-Python dict, int and str work.  On the tuning host
it took the run-to-run spread of a child's run time from 0.2-0.3 of the
median to 0.03-0.05, and that of its op latency percentiles from 0.2-0.55
to 0.03-0.08.
"""

from __future__ import annotations

import bisect
import signal
import time

CLOCK = time.perf_counter
# the host changes speed within tenths of a second, so samples are dense and
# each op is scaled by the samples nearest to it
INTERVAL_S = 0.025
LOOP_N = 1875
# a fixed reference time for loop(): on the host the benchmark was tuned on,
# a 2-vCPU Intel Xeon VM at 2.1 GHz with CPython 3.11.7, loop() took 0.5 ms
# in its fast spells and 1 ms in its slow ones
REF_LOOP_S = 0.001
# an interval's speed is the mean over the samples taken within it, or over
# the MIN_SAMPLES samples nearest its midpoint when fewer were
MIN_SAMPLES = 3
# set-up is too short to sample from the timer: the loop is timed this many
# times just before a child is spawned and again right after its set-up
SETUP_LOOPS = 5


def loop() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(LOOP_N):
        k = i & 255
        table[k] = table.get(k, 0) + i
        acc ^= hash(str(k))
    return acc


def time_loop() -> float:
    start = CLOCK()
    loop()
    return CLOCK() - start


def mean_speed(took) -> float:
    """Mean speed relative to the reference over loop times ``took``."""
    return sum(REF_LOOP_S / t for t in took) / len(took)


class Sampler:
    """Runs ``loop()`` every INTERVAL_S from SIGALRM while started."""

    def __init__(self):
        self.at: list[float] = []  # clock at each sample's start
        self.took: list[float] = []  # the loop's wall seconds
        self.spent = 0.0  # wall seconds inside the handler, all samples
        self.cpu_spent = 0.0  # CPU seconds inside the handler

    def _tick(self, signum, frame):
        cpu0, start = time.process_time(), CLOCK()
        loop()
        end = CLOCK()
        self.at.append(start)
        self.took.append(end - start)
        self.spent += CLOCK() - start
        self.cpu_spent += time.process_time() - cpu0

    def sample(self) -> None:
        """Take one sample now, outside the timer."""
        self._tick(None, None)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def net_clock(self) -> float:
        """CLOCK with the time spent in samples taken out."""
        return CLOCK() - self.spent

    def speed(self, start: float, end: float) -> float:
        """Mean speed relative to the reference over [start, end] (raw clock)."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.at, (start + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.at) - MIN_SAMPLES))
            hi = min(len(self.at), lo + MIN_SAMPLES)
        if hi <= lo:
            raise RuntimeError("no reference-loop samples were taken")
        return mean_speed(self.took[lo:hi])
