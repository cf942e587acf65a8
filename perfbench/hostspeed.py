"""Host-speed correction: a fixed piece of reference work timed between ops.

The benchmark host is a few cores of a shared machine whose speed switches
between a fast and a slow state, about 1.7x apart, that last from seconds to
more than a whole run. The same pipeline run, and any fixed piece of work,
slows by about the same factor. So the benchmark times a fixed piece of
reference work between ops, and corrects each op's time by the host speed
around it:

    corrected = measured * REF_SECONDS / (mean of the two reference timings
                                          that bracket the op)

A corrected time reads as the time the op would take on a host where the
reference work takes REF_SECONDS, which is its time on the baseline host
(2-vCPU Intel Xeon, Python 3.11, numpy 2.4, see README.md) in the fast state.
The reference work calls no qadsim code, so no change to the program moves
it. It mixes the two kinds of work the pipelines do: numpy kernels on a
2^12-amplitude complex state, written as simcore writes its one-qubit
gates, and an interpreter loop of small Python calls.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

REF_SECONDS = 1.2e-3
N_QUBITS = 12
LOOP_CALLS = 4000
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_AMPS = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 1 << N_QUBITS))


def _step(i: int, acc: int) -> int:
    return acc + (i * i) % 7


def _work() -> None:
    amps = _AMPS
    for q in range(N_QUBITS):
        block = amps.reshape(1 << (N_QUBITS - 1 - q), 2, 1 << q)
        amps = np.einsum("ab,hbl->hal", _H, block).reshape(-1)
    float(np.sum(np.abs(amps) ** 2))
    acc = 0
    for i in range(LOOP_CALLS):
        acc = _step(i, acc)


def reference_seconds() -> float:
    """Wall time of the reference work, run once untimed first.

    The untimed run brings the work's data and code back into the caches,
    which the op before it may have evicted; otherwise the size of the
    program's working set would leak into the correction.
    """
    _work()
    start = perf_counter()
    _work()
    return perf_counter() - start


class SpeedLog:
    """Reference timings taken between ops, at most one per `every` seconds."""

    def __init__(self, every: float):
        self.every = every
        self.timings: list[float] = []
        self._last = float("-inf")

    def mark(self, force: bool = False) -> int:
        """Time the reference work if due (or forced); the latest timing's index."""
        if force or perf_counter() - self._last >= self.every:
            self.timings.append(reference_seconds())
            self._last = perf_counter()
        return len(self.timings) - 1

    def factor(self, j: int) -> float:
        """Correction for work done between timings j and j + 1."""
        return REF_SECONDS / ((self.timings[j] + self.timings[j + 1]) / 2.0)
