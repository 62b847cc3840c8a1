"""Host speed, measured with fixed reference kernels.

The reference machine is shared, and its speed drifts by tens of
percent over minutes: the same code measured from 260 to 480 us per
report pair within one hour, in runs of 30 s, which no run length
averages away. The benchmark therefore times two kernels that use no
telematch code, before the first measured pass and after every pass,
and expresses the times of each pass at the kernels' nominal speed:

    reported = measured * nominal / mean(kernel time around the pass)

* `reference_work` does small work in the package's styles (number
  formatting, numpy calls on 2x2 and 4-element arrays). It scales the
  report pairs and the CLI calls.
* `reference_sampler` does the sampler's array operations at the size
  of the pass's largest `monte_carlo` call. It scales the `monte_carlo`
  calls, whose large calls are bound by memory traffic, which drifts
  apart from the small kernel: over six runs of the montecarlo
  workload, mc_trials_per_s spread 0.13 as measured, 0.08 scaled by
  `reference_work` and 0.02 scaled by this kernel.

A change to telematch leaves the kernels alone and moves the reported
figures in full; a change of host speed mostly cancels out. On the
point workload this cut the spread of report_p50_us over five seeds
from 0.17 to 0.03.

Cold starts drift with the host too, but in a way the in-process kernels
do not follow (process creation, page faults, loading extension
modules). Their reference is a fresh interpreter that imports numpy
alone, timed alternately with the fresh interpreters that import
telematch.cli:

    setup_s = median(telematch.cli) * NUMPY_IMPORT_NOMINAL_S / median(numpy)
"""

from __future__ import annotations

import math
import time

import numpy as np

# Time of one reference_work call on the quiet reference machine.
REF_NOMINAL_S = 1.5e-3
# Calls per sample: about 30 ms, a few percent of a pass.
REF_CALLS = 20
# Time per row of reference_sampler at 2e6 rows on the reference machine.
SAMPLER_NOMINAL_S_PER_ROW = 5e-8
# Rows per sample, in calls of the pass's largest size: about 50-100 ms.
SAMPLER_ROWS_PER_SAMPLE = 1_000_000
# Wall time of `python3 -c "import numpy"` on the quiet reference machine.
NUMPY_IMPORT_NOMINAL_S = 0.12

_MATRIX = np.eye(4, dtype=np.complex128)
_CUTS = np.array([0.25, 0.5, 0.75])
_P_BOB = np.array([0.1, 0.2, 0.3, 0.4])


def reference_work() -> float:
    """Fixed work in the package's styles, without the package: number
    formatting and parsing, numpy calls on 2x2 and 4-element arrays, and
    a 10k-row sampler."""
    rows = [(i / 150, 2.0 * (i / 150) ** 2) for i in range(150)]
    text = "\n".join(",".join(format(v, ".15g") for v in row) for row in rows)
    total = float(len(text)) + sum(float(line.split(",")[1]) for line in text.splitlines())
    for _ in range(15):
        m = np.asarray(_MATRIX[:2, :2] * 0.5, dtype=np.complex128)
        if np.isfinite(m).all():
            total += float(np.max(np.abs(m @ m.conj().T - np.eye(2))))
        total += abs(np.linalg.det(m))
        v = np.kron(np.asarray([0.6, 0.8j]), np.asarray([0.8, 0, 0, 0.6]))
        total += float(np.real(np.vdot(v, v))) + float(np.abs(_MATRIX @ v[:4]).sum())
    draws = np.random.default_rng(7).random((10_000, 2))
    idx = np.searchsorted(np.array([0.25, 0.5, 0.75]), draws[:, 0])
    return total + float(np.bincount(idx, minlength=4)[0])


def reference_sampler(rows: int) -> int:
    """The sampler's array operations on `rows` draws, without the
    package; its buffers are no larger than those of a `monte_carlo`
    call of as many trials, so it sets no new peak memory."""
    draws = np.random.default_rng(7).random((rows, 2))
    idx = np.minimum(np.searchsorted(_CUTS, draws[:, 0], side="right"), 3)
    succeeded = draws[:, 1] < _P_BOB[idx]
    return int(np.bincount(idx, minlength=4)[0] + np.bincount(idx[succeeded], minlength=4)[0])


class Speedometer:
    """Samples of both kernels' times, one after each pass."""

    def __init__(self, sampler_rows: int) -> None:
        self.rows = sampler_rows
        self.calls = math.ceil(SAMPLER_ROWS_PER_SAMPLE / sampler_rows)
        self.samples: list[float] = []
        self.sampler_samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(REF_CALLS):
            reference_work()
        t1 = time.perf_counter()
        for _ in range(self.calls):
            reference_sampler(self.rows)
        t2 = time.perf_counter()
        self.samples.append((t1 - t0) / REF_CALLS)
        self.sampler_samples.append((t2 - t1) / (self.calls * self.rows))

    def interval_factors(self) -> tuple[list[float], list[float]]:
        """The multipliers of each interval between consecutive samples,
        from the mean of the two samples around it: for reference_work
        and for reference_sampler."""

        def factors(samples, nominal):
            return [2.0 * nominal / (a + b) for a, b in zip(samples, samples[1:])]

        return (factors(self.samples, REF_NOMINAL_S),
                factors(self.sampler_samples, SAMPLER_NOMINAL_S_PER_ROW))
