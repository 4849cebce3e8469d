"""Machine-speed probe: a fixed kernel, independent of juliahull, timed between ops.

On a host whose cores are shared with other tenants the speed one process
gets drifts: on a 2-vCPU Xeon VM a fixed numpy loop took 61 ms (median)
in one minute and 98 ms half an hour later, with no steal time reported.
Every op slows by about the same factor, so the benchmark times a fixed
reference kernel between ops and scales its times to the speed at which
the kernel takes ``REFERENCE_S``.  The raw figures are printed beside the
scaled ones.

The kernel mixes what a juliahull op spends its time on: iteration over
small complex arrays (as in the batched root solver), elementwise passes
over a large array (as in the escape grid) and a pure-Python monotone
chain (as in the hull).
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time that defines the reference speed; any constant works, since
# only ratios between runs are compared.
REFERENCE_S = 0.020
# Probe time per gap as a share of the op before it, so that samples fall
# in proportion to op time; at least MIN_SAMPLES per gap.
PROBE_SHARE = 0.05
MIN_SAMPLES = 3

_RNG = np.random.default_rng(12345)
_SMALL = _RNG.random((256, 5)) + 1j * _RNG.random((256, 5))
_LARGE = _RNG.random(1 << 16) + 1j * _RNG.random(1 << 16)
_POINTS = (_RNG.random(4000) + 1j * _RNG.random(4000)).tolist()


def _kernel() -> int:
    z = _SMALL.copy()
    for _ in range(60):
        diff = z[:, :, None] - z[:, None, :]
        diff[:, range(5), range(5)] = 1.0
        z = z - 0.01 * (z ** 5 - 0.5) / (1.0 + np.abs(diff).sum(axis=2))
    w = _LARGE.copy()
    for _ in range(6):
        w = w * w * 0.5 + 0.1j
        w = np.where(np.abs(w) > 2.0, 0.0, w)
    hull: list = []
    for q in sorted(_POINTS, key=lambda q: (q.real, q.imag)):
        while len(hull) >= 2 and ((hull[-1] - hull[-2]).conjugate()
                                  * (q - hull[-2])).imag <= 0:
            hull.pop()
        hull.append(q)
    return len(hull)


class SpeedProbe:
    """Kernel timings taken during one phase of a run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, after_seconds: float = 0.0) -> None:
        """Time the kernel for PROBE_SHARE of ``after_seconds`` of work."""
        budget = PROBE_SHARE * after_seconds
        spent = 0.0
        count = 0
        while count < MIN_SAMPLES or spent < budget:
            start = time.perf_counter()
            _kernel()
            self.samples.append(time.perf_counter() - start)
            spent += self.samples[-1]
            count += 1

    def slowdown(self) -> float:
        """Mean kernel time over the reference time: 1.0 at reference speed."""
        return statistics.fmean(self.samples) / REFERENCE_S
