"""The speed reference that benchmark times are scaled by.

The machine the benchmark was built on is shared, and its speed swings by
about a quarter within seconds.  So a fixed loop of exact arithmetic is
timed around, and at intervals during, every timed piece of work, and the
work's time is scaled to the speed at which the loop takes REF_SECONDS.
This module uses the standard library only, so that the set-up probe can
load it before the import it times.
"""

import gc
import signal
from fractions import Fraction
from time import perf_counter

REF_LOOP = 600  # iterations of the reference loop
REF_SECONDS = 0.003  # the reference loop's time at the speed all times are scaled to
SAMPLE_EVERY_S = 0.05  # the reference is also timed this often during timed work


def reference():
    """Seconds taken by a fixed loop of the kind of work the program does
    (Fraction arithmetic and dict stores), with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        acc, table = Fraction(0), {}
        for i in range(REF_LOOP):
            acc = (acc + Fraction(i % 7, 360)) % 1
            table[i % 13, i % 7] = acc
        return perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def scaled(seconds, *samples):
    """seconds at the reference speed, given reference times taken around
    and during the timed work."""
    return seconds * REF_SECONDS * len(samples) / sum(samples)


class Sampler:
    """Times the reference loop every SAMPLE_EVERY_S seconds from a SIGALRM
    handler while started, so that long work is scaled by the speed the
    machine had while it ran and not only at its two ends.  The time spent
    in the handler is kept, to be taken off the work's time."""

    def __init__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, _signum, _frame):
        t = perf_counter()
        self.samples.append(reference())
        self.spent += perf_counter() - t

    def start(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        """Stop sampling; return (samples, seconds spent taking them)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.samples, self.spent
