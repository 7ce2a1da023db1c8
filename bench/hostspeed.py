"""Host-speed reference kernel, sampled while a job runs.

The host's speed drifts by a factor of two within a second, so a job's raw
time says little about the program. A fixed pure-Python kernel (a GF(9)
series product on tuple-backed elements) is run from a SIGALRM handler at
randomised intervals while the job computes. Its runs are subtracted from
the job's time through a clock that excludes them, and the job's time is
scaled by NOMINAL_KERNEL_S over the median kernel time seen during the job.
Sampling inside the job, not before and after it, is what tracks speed
changes shorter than the job; kernel runs are also made between jobs, for
comparison (see the README for the figures). This module imports nothing
from char3iso.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time

# The speed all scaled times refer to: a timed kernel run takes this long.
NOMINAL_KERNEL_S = 0.0002
# Mean gap between two kernel calls while a job or a set-up probe computes.
PERIOD_S = 0.004
# A job that saw fewer timed runs than this is scaled by the latest ones.
MIN_WINDOW = 2
# Kernel calls made between two jobs, outside the job.
BETWEEN_RUNS = 4


_HIGH = (2, 0)  # t^2 = -1 in GF(9) = F3[t]/(t^2 + 1)


class _E:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(int(c) % 3 for c in coeffs))

    def __add__(self, other):
        return _E(tuple((a + b) % 3 for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        conv = [0, 0, 0]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    conv[i + j] += a * b
        out = [c % 3 for c in conv[:2]]
        c = conv[2] % 3
        if c:
            out = [(x + c * h) % 3 for x, h in zip(out, _HIGH)]
        return _E(out)


class Kernel:
    """The reference kernel: a length-6 GF(9) series product on fixed
    tuple-backed elements, the same kind of work the program does.

    It must not share the program's working set, or the scale would move
    with the program's own memory use. So a call makes two runs and times
    only the second, which finds the kernel's few objects, its code and the
    allocator's free blocks in cache whatever the job did before; and the
    collector is off during the call, since a collection that the kernel's
    allocations set off would walk the job's objects."""

    N = 6

    def __init__(self):
        self.a = [_E((i % 3, 1 + i // 3 % 2)) for i in range(self.N)]
        self.b = [_E((1 + i % 2, i % 3)) for i in range(self.N)]

    def _run(self):
        n, a, b = self.N, self.a, self.b
        out = [_E((0, 0))] * (2 * n - 1)
        for i in range(n):
            for j in range(n):
                out[i + j] = out[i + j] + a[i] * b[j]

    def __call__(self):
        """Seconds taken by the call and by its timed run."""
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self._run()
        middle = time.perf_counter()
        self._run()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        return end - start, end - middle


class Sampler:
    """Runs the kernel from a timer signal while armed, and between jobs.

    samples holds the timed runs made inside jobs, between those made
    outside them. clock() is perf_counter minus the time spent in kernel
    calls inside jobs, so an interval read from it is the program's own time.
    """

    def __init__(self, seed=0):
        self.kernel = Kernel()
        for _ in range(20):  # let the interpreter specialise the kernel first
            self.kernel()
        self.rng = random.Random(seed)
        self.samples = []
        self.between = []
        self.kernel_total = 0.0
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        total, timed = self.kernel()
        self.samples.append(timed)
        self.kernel_total += total
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S * (0.5 + self.rng.random()))

    def clock(self):
        return time.perf_counter() - self.kernel_total

    def between_jobs(self):
        for _ in range(BETWEEN_RUNS):
            self.between.append(self.kernel()[1])

    def arm(self):
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S * self.rng.random() + 1e-4)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale_since(self, mark):
        """Factor turning a time measured since samples[mark] into nominal
        seconds: from the kernel runs made since then or, if fewer than
        MIN_WINDOW, from the latest runs made between jobs."""
        window = self.samples[mark:]
        if len(window) < MIN_WINDOW:
            window = self.between[-MIN_WINDOW:]
        return NOMINAL_KERNEL_S / statistics.median(window)

    def close(self):
        self.disarm()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
