"""Host-speed calibration for the benchmark's timings.

On a shared virtual machine the host's load changes how fast the same
single-threaded work runs: one chdp repetition has taken from 0.37 s to
0.70 s within a minute, with CPU time moving along with wall time, so
there is no waiting to subtract.  A fixed kernel of the same kind of work
as the measurement, independent of chdp, is timed next to every
measurement, and the measurement is rescaled to the speed at which that
kernel takes its reference time:

    normalised = measured * reference_s / kernel_seconds

The host's slow phases do not slow all work alike.  Measured on a 2-vCPU
virtual machine, they slowed a Python loop over small FFTs, and the
interpreter-bound evolve, curvature and rigid-body workloads, by about
1.7x, but whole-array numpy work on megabyte matrices, and the flow-map
workload built on it, by about 1.15-1.2x.  Hence two kernels:
INTERPRETER for interpreter-bound work and DENSE for the flow map.

The FFT functions are bound at import, so the tracer's counting wrappers
on numpy.fft never reach the kernels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.fft import irfft, rfft


def _small_ffts():
    x = np.linspace(0.0, 1.0, 256)
    weights = np.exp(-np.arange(129) / 50.0)
    for _ in range(1500):
        x = irfft(rfft(x) * weights, 256) * 0.5 + x * 0.5 + 0.001


def _dense_series():
    """Builds and applies a 1024 x 342 series plan, as the flow map's RK4 stages do."""
    z = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 1024, endpoint=False))
    plan = np.empty((1024, 342), dtype=complex)
    weights = np.ones(342, dtype=complex)
    for _ in range(6):
        plan[:, 0] = 1.0
        np.cumprod(np.broadcast_to(z[:, None], (1024, 341)), axis=1, out=plan[:, 1:])
        plan @ weights


@dataclass(frozen=True)
class Kernel:
    """A fixed piece of work and its wall time at the reference host speed."""

    work: Callable[[], None]
    reference_s: float

    def seconds(self) -> float:
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def normalise(self, seconds: float, before: float, after: float) -> float:
        """`seconds` at the reference host speed, from the kernel timed on both sides."""
        return seconds * self.reference_s / (0.5 * (before + after))


INTERPRETER = Kernel(_small_ffts, 0.025)
DENSE = Kernel(_dense_series, 0.013)
