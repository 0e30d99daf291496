"""The machine's speed, sampled while jobs run.

On a shared 2-core virtual machine the speed drifts by a third over tens of
seconds.  Timed as they are, identical runs there differ by up to 30%, more
than any regression bound could allow.  So a run also times a fixed piece
of reference work while it works, and run.py reports times at the speed
where that work takes its reference time: each job's time multiplied by the
reference time over the mean of the samples taken during the job and the
two on either side.  The summary lines also print the times as measured.

Jobs that run in this process (the library workloads) are sampled with a
fixed pure-Python loop twice a second on SIGALRM, in the job's own thread
(2% of the time, which the job clock leaves out), so a long job is sampled
while it runs.  Jobs that are whole processes (`cli_session`, and set-up)
are mostly interpreter start and imports, which the drift slows less than
a loop: over 9 sessions, scaling by a loop made session totals vary more
(14.5%) than raw times (7.9%), and scaling by the start of a bare
interpreter less (4.7%).  They are sampled with a bare interpreter start
before each job.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

SAMPLE_ITERS = 100_000
REFERENCE_S = 0.01  # the sample loop's time at the reference speed
PROCESS_REFERENCE_S = 0.09  # a bare interpreter's start at the reference speed
PERIOD_S = 0.5


def sample_s() -> float:
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(SAMPLE_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


def process_sample_s() -> float:
    """Seconds a bare interpreter takes to start and exit now."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


class Speedometer:
    """Collects speed samples: with `timer`, loop samples on SIGALRM while
    active (use as a context manager); otherwise a bare interpreter start
    each time `tick()` is called.

    `clock()` is `perf_counter` minus the time spent sampling, so jobs timed
    with it in this thread are not charged for the samples.
    """

    def __init__(self, timer: bool):
        self.timer = timer
        self.sample = sample_s if timer else process_sample_s
        self.reference = REFERENCE_S if timer else PROCESS_REFERENCE_S
        self.samples: list = []
        self.paused = 0.0

    def tick(self, *_signal_args):
        dt = self.sample()
        self.samples.append(dt)
        self.paused += dt

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def __enter__(self):
        if self.timer:
            signal.signal(signal.SIGALRM, self.tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, samples: list) -> float:
        """Factor that turns a time measured while these samples were taken
        into one at the reference speed."""
        return self.reference / statistics.mean(samples or [self.sample()])
