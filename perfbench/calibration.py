"""Host-speed calibration: a fixed piece of work timed beside the workbench.

The speed of a shared host drifts by a third within minutes, and the
workbench slows with it.  A calibration slice is a fixed computation that
never touches the workbench, so a change to the workbench does not change
its cost and a slower host does.  Dividing a time by the slice's duration
measured at the same moment cancels the drift.
"""

from __future__ import annotations

import math
import signal
import time
from fractions import Fraction

import numpy as np

# seconds of wall time between calibration slices during a pass
CAL_EVERY_S = 0.35
# slices timed right after set-up
SETUP_SLICES = 6
# about a slice's duration on an idle 2-vCPU Xeon host (Python 3.11,
# numpy 2.4): set-up times are reported in seconds of a host on which a
# slice takes this long
REF_SLICE_S = 0.035


def calibration_slice() -> None:
    """Square a rational polynomial, then sort log|g| on a circle with numpy.

    The polynomial is bivariate of degree 11, a dict of exponent tuples, as
    in the workbench's exact kernels; the numpy part is a circle quadrature
    step on 2^16 nodes, as in ``nevanlinna.circle_average``.  Host load
    slows the two kinds of work unequally, and the suite spends about half
    its time in numpy: with the Python part alone, five passes of one suite
    seed ranged over 6% in slices, with both parts over 2%.
    """
    a = {(i, j): Fraction(i + 2 * j + 1, j + 3) for i in range(12) for j in range(12 - i)}
    out: dict = {}
    for (i, j), c in a.items():
        for (k, l), d in a.items():
            out[i + k, j + l] = out.get((i + k, j + l), 0) + c * d
    z = 3.0 * np.exp(1j * np.linspace(0.0, 2 * math.pi, 1 << 16, endpoint=False))
    v = np.log(np.abs(np.exp(z) + z * z - 1.0))
    np.sort(np.concatenate([v, v[::-1]]))


def mean_slice_s(slices: int) -> float:
    """The mean duration of ``slices`` slices run back to back."""
    start = time.perf_counter()
    for _ in range(slices):
        calibration_slice()
    return (time.perf_counter() - start) / slices


class Calibration:
    """Samples the host's speed while a pass runs.

    Inside this context a SIGALRM handler runs a calibration slice every
    ``CAL_EVERY_S`` seconds, also in the middle of an operation, so the
    samples spread evenly over the pass.  ``slice_s``, their mean duration,
    is the unit of the pass's time in which the drift cancels.  ``spent`` is
    the time the slices took, which the pass subtracts from its timings.
    """

    def __init__(self):
        self.spent = 0.0
        self.slices = 0

    def _tick(self, *_):
        start = time.perf_counter()
        calibration_slice()
        self.spent += time.perf_counter() - start
        self.slices += 1

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def slice_s(self) -> float:
        return self.spent / self.slices
