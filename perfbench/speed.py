"""Machine-speed meter: rescale measured times to one reference speed.

The shared machines this benchmark runs on change speed in steps: a vCPU
runs about 1.5x slower while the hyperthread next to it is busy with
another tenant's work, and that switches on and off every second or so,
independently on each CPU.  Two runs of the same code minutes apart can
differ by 1.5x in raw wall time, more than any useful bound.

So while it times ops, the benchmark samples the speed of its own CPU: an
interval timer interrupts the process every SAMPLE_EVERY_S and the handler
times a fixed kernel (interpreted float and complex arithmetic plus a small
vectorised complex exponential and matrix product, the kinds of work the
program does).  The kernel is the benchmark's own code, so a change to the
program moves the op times and not the kernel's.  An interval of busy time
b (its wall time less the time spent in the handler) in which the samples
read k_1 .. k_n is reported as b * REFERENCE_S * mean(1 / k_i): the time it
would take at the speed at which the kernel takes REFERENCE_S.
"""

import math
import signal
import time

import numpy as np

# The kernel's time on 2 vCPUs of an Intel Xeon (Python 3.11, numpy 2.4,
# BLAS on one thread) while the sibling hyperthread is idle; fixed, so
# every run of every commit reports at the same reference speed
REFERENCE_S = 2.0e-4
SAMPLE_EVERY_S = 0.04

_WAVES = np.linspace(0.0, 40.0, 2_000) * (1.0 + 0.05j)
_A = np.random.default_rng(12345).standard_normal((32, 32))


def kernel():
    """One fixed unit of work; the value is returned so nothing is elided."""
    acc = 0.0
    z = 0.3 + 0.4j
    for i in range(600):
        acc += math.exp(-1e-4 * i) * math.cos(1e-3 * i)
        z = z * 0.999 + 1e-3j
    acc += float(np.exp(1j * _WAVES).real.sum())
    acc += float(np.trace(_A @ _A))
    return acc + abs(z)


class Meter:
    """Samples the kernel on a timer while started; reads are cheap."""

    def __init__(self):
        self.inverse = []  # 1 / kernel seconds, one per sample, in order
        self.spent = 0.0  # seconds spent in the handler
        self._previous = None

    def _sample(self, signum=None, frame=None):
        # the first run brings the kernel back into the caches the program
        # used; the second, timed one reads the CPU's speed alone
        started = time.perf_counter()
        kernel()
        warm = time.perf_counter()
        kernel()
        self.inverse.append(1.0 / (time.perf_counter() - warm))
        self.spent += time.perf_counter() - started

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()  # so that every interval has a reading
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        """A point to measure an interval from."""
        return len(self.inverse), self.spent

    def factor(self, since=(0, 0.0)):
        """Reference-to-measured speed ratio over the samples since
        ``since``; an interval shorter than one sampling period uses the
        latest sample before it."""
        count = since[0]
        inside = self.inverse[count:] or self.inverse[count - 1:count]
        return REFERENCE_S * sum(inside) / len(inside)

    def rescale(self, seconds, since):
        """``seconds`` of wall time since ``since`` at the reference speed,
        with the handler's own time taken out."""
        return (seconds - (self.spent - since[1])) * self.factor(since)
