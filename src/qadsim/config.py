"""Shared numeric tolerances, global limits and the package's error base.

All tolerance constants used across the simulator live here so that tests
and modules agree on one set of numbers.
"""
from __future__ import annotations

# Statevector norm must stay within this of 1 after every operation.
NORM_TOL = 1e-10

# Hard limit on total qubits in a single statevector.
QUBIT_CAP = 26

# Variance floor used by the "epsilon-floor" degenerate-data policy.
SIGMA_MIN = 1e-6

# Largest phase-register width allowed in circuit-mode amplitude estimation.
MAX_PHASE_BITS = 14


class QadsimError(Exception):
    """Base of every error qadsim raises on purpose (bad input, broken invariant)."""

