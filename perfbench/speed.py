"""Host-speed calibration: a fixed reference kernel timed next to the program.

The shared 2-core virtual machine this benchmark was tuned on changes speed
by up to 1.5x within seconds and drifts by up to ~45% over minutes. Process
CPU time equals wall time there (the host reports no stolen time), so neither
CPU time nor a median over one run removes the drift: a slow phase can last
a whole run. The benchmark therefore times a fixed kernel right before and
after every command and, through an interval timer, five times a second
during it, and scales each command's time by ``REFERENCE_S`` over the mean
of those kernel times. Sampling during a command tracks speed changes
within it; samples only around each command left twice the spread. A scaled
time reads as seconds on the host at the speed it had when ``REFERENCE_S``
was recorded. Set-up probes, which are fresh processes, are scaled the same
way by a reference process.

The kernel is the benchmark's own code (an interpreter loop and the numpy
brute-force visibility oracle of ``inputs``), so no change to the program
changes it; it mixes interpreted and small-array numpy work like the program.
The numpy part is about 60% of it: the program slowed more than an even mix
when the host slowed, and about as much as this one.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import inputs

REFERENCE_S = 0.009  # about the median kernel time on the tuning host
SAMPLE_PERIOD_S = 0.2  # interval-timer period during a command

# Start-up of a fresh process moves with other parts of the host (file cache,
# page faults, loading shared libraries) than the kernel measures, so set-up
# probes are scaled by a reference process run between them instead.
REFERENCE_PROCESS = ("-c", "import numpy")
REFERENCE_PROCESS_S = 0.2  # about its wall time on the tuning host

_ELEMENTS = inputs.lattice(inputs.L_VERTICES)
_XY = np.asarray(inputs.batch("simulate-L", inputs.DEFAULT_SEED)[0]["xy"])


def kernel() -> int:
    """The fixed reference work: an interpreter loop and one oracle mask."""
    s = 0
    for i in range(50_000):
        s += i * i % 7
    return s + int(inputs.brute_masks(inputs.L_VERTICES, _XY, _ELEMENTS).sum())


def sample() -> float:
    """Wall time of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


@contextlib.contextmanager
def sampling(samples: list[float]):
    """Append a kernel time to ``samples`` every ``SAMPLE_PERIOD_S`` while the
    block runs (between bytecodes of the main thread). The timer is re-armed
    after each sample, so samples never nest."""

    active = True

    def handler(signum, frame):
        if active:  # a signal raised just before the block ended is dropped
            samples.append(sample())
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)
    try:
        yield
    finally:
        active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def scaled(seconds: float, samples: list[float]) -> float:
    """``seconds`` scaled to the reference speed by the mean kernel time."""
    return seconds * REFERENCE_S / math.fsum(samples) * len(samples)


def timed(fn):
    """Run ``fn()`` between two kernel samples, sampling during it as well.

    Returns ``(result, seconds, samples)``; ``seconds`` excludes the kernel
    runs made during ``fn``.
    """
    samples = [sample()]
    t0 = time.perf_counter()
    with sampling(samples):
        result = fn()
    seconds = time.perf_counter() - t0 - math.fsum(samples[1:])
    samples.append(sample())
    return result, seconds, samples


def process_seconds(cmd) -> float:
    """Wall time of a child process, which must exit with 0."""
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=120)
    return time.perf_counter() - t0


def scaled_processes(cmd, n: int) -> tuple[float, float]:
    """Median scaled and median raw wall time of ``n`` runs of ``cmd``, each
    scaled by the mean time of the reference processes run before and after it."""
    reference = [sys.executable, *REFERENCE_PROCESS]
    refs = [process_seconds(reference)]
    raw = []
    for _ in range(n):
        raw.append(process_seconds(cmd))
        refs.append(process_seconds(reference))
    scaled_times = [t * REFERENCE_PROCESS_S * 2 / (a + b) for t, a, b in zip(raw, refs, refs[1:])]
    return statistics.median(scaled_times), statistics.median(raw)


def median_factor(sample_lists) -> float:
    """Median of REFERENCE_S / mean kernel time, for the details line."""
    return statistics.median(REFERENCE_S * len(s) / math.fsum(s) for s in sample_lists)
