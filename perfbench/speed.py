"""A machine-speed reference that steadies the benchmark's timings.

The shared machine the benchmark was built on changes speed by 20-30 % over
a few seconds: a fixed numpy kernel's 5-second medians ranged from 2.1 to
3.0 ms within one minute, and the same code's step medians moved by as much
from run to run. The harness therefore runs the fixed reference kernel below
(plain numpy and Python, no call into the package) every ``EVERY_S`` seconds
between steps, and scales each timed interval by ``NOMINAL_MS`` over the mean
of the kernel's times measured just before and just after it.

A reported time is thus in *reference milliseconds*: what the interval takes
while the kernel takes ``NOMINAL_MS``, which is about its median on that
machine. A change to the package does not touch the kernel, so the scale is
the same for every commit. Over one minute of ``eval_toy`` steps this cut
the variation of 5-second step medians from 14 % to 3.4 % (coefficient of
variation), and on ``dsp_chain`` from 8.8 % to 3.5 %.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_MS = 0.5
# A mark is the median of REPS runs: with 5 runs two back-to-back marks
# differed by 6 % (median) and 38 % (90th percentile), with 15 by 3 % and 9 %.
EVERY_S = 0.5
REPS = 15

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 64))
_X = _rng.standard_normal((16, 4, 64)) + 0j


def kernel_ms() -> float:
    """One run of the reference kernel: the mix of a step in miniature
    (small matmuls, FFTs, elementwise ops, Python-level loops), in ms."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(8):
        b = _A @ _A
        c = np.fft.fft(_X, axis=-1)
        d = np.maximum(b, 0.0) * 1.5 + b
        acc += float(d.sum()) + sum(float(v) for v in _A[0, :16])
        np.concatenate([c.real, c.imag], axis=-1).reshape(16, -1)
    return (time.perf_counter() - t0) * 1e3


class Reference:
    """Kernel times taken between timed intervals, and the scaling they give.

    ``mark()`` times the kernel (median of ``REPS`` runs). An interval timed
    after mark ``k`` is scaled with marks ``k`` and ``k + 1``, so the owner
    marks once more after the last interval."""

    def __init__(self):
        self.marks: list[float] = []
        self._last = 0.0

    def mark(self) -> None:
        self.marks.append(statistics.median(kernel_ms() for _ in range(REPS)))
        self._last = time.perf_counter()

    def maybe_mark(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.mark()

    @property
    def last(self) -> int:
        return len(self.marks) - 1

    def scale(self, value: float, k: int) -> float:
        after = self.marks[min(k + 1, len(self.marks) - 1)]
        return value * NOMINAL_MS / ((self.marks[k] + after) / 2.0)
