"""Shared numeric tolerances and global limits.

All tolerance constants used across the simulator live here so that tests
and modules agree on one set of numbers.
"""
from __future__ import annotations

import os

# Statevector norm must stay within this of 1 after every operation.
NORM_TOL = 1e-10

# Reduced purity required before a register may be discarded.
PURITY_TOL = 1e-9

# Hard limit on total qubits in a single statevector (overridable via env).
DEFAULT_QUBIT_CAP = 26

# Variance floor used by the "epsilon-floor" degenerate-data policy.
SIGMA_MIN = 1e-6

# Largest phase-register width allowed in circuit-mode amplitude estimation.
MAX_PHASE_BITS = 14


def qubit_cap() -> int:
    """Current qubit cap, honoring the QADSIM_QUBIT_CAP override."""
    raw = os.environ.get("QADSIM_QUBIT_CAP")
    if raw is None:
        return DEFAULT_QUBIT_CAP
    return int(raw)
