"""Machine-speed probe for the end-to-end times.

On a shared host the speed of pure-Python code moves by tens of percent
within seconds and drifts over minutes, whatever the code.  So while an
untraced run measures, a timer signal interrupts it every INTERVAL_S and
runs `probe`, a fixed piece of Fraction and dict work that does not touch
pvext, and records how long it took.  Each measured interval then counts
in "reference seconds": its wall time, minus the probes that ran inside it,
scaled by REFERENCE_S over the trimmed mean probe time around it.  A pvext change
moves the interval and not the probe, so it shows in full; a slower host
moves both, and cancels out.
"""

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.01
# The nominal probe time.  A reference second is a second at the speed at
# which one probe takes REFERENCE_S; on a quiet 2-core x86_64 host with
# CPython 3.11 a probe takes about that long, so there reference seconds
# are close to wall seconds.
REFERENCE_S = 0.0005
# An interval shorter than this is scaled by the probes of the WINDOW_S
# around its middle, so that short operations rest on several probes.
WINDOW_S = 0.25
# Share of the probes dropped at each end before averaging, so that a probe
# that was itself held up by something else does not count.
TRIM = 0.1


def probe():
    """Fixed work in the style of pvext's exact arithmetic."""
    total = Fraction(0)
    counts = {}
    for i in range(1, 150):
        total += Fraction(i % 7 + 1, i % 97 + 1)
        key = (i % 31, i % 5)
        counts[key] = counts.get(key, 0) + i
    return total, len(counts)


class SpeedSampler:
    """Runs `probe` on a timer while active; a context manager."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.starts = []
        self.seconds = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, _signum, _frame):
        # The probe's own garbage must not start a collection of pvext's
        # objects inside the probe, where it would be counted as probe time.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            probe()
            self.starts.append(start)
            self.seconds.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def _between(self, lo, hi):
        return self.seconds[bisect.bisect_left(self.starts, lo):
                            bisect.bisect_left(self.starts, hi)]

    def reference_seconds(self, start, seconds):
        """The wall interval [start, start + seconds) in reference seconds."""
        end = start + seconds
        busy = seconds - sum(self._between(start, end))
        middle = (start + end) / 2
        around = self._between(min(start, middle - WINDOW_S / 2),
                               max(end, middle + WINDOW_S / 2))
        if not around:
            raise RuntimeError("no speed probe ran near an interval; "
                               "is SIGALRM used elsewhere?")
        return busy * REFERENCE_S / trimmed_mean(around)


def trimmed_mean(values, trim=TRIM):
    values = sorted(values)
    cut = int(len(values) * trim)
    return statistics.fmean(values[cut:len(values) - cut])
