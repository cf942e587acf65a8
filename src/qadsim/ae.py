"""Canonical amplitude estimation on top of the statevector core.

A :class:`StatePreparation` names a replayable pipeline A mapping |0...0> to a
target state together with a predicate designating the good subspace.  The
Grover operator Q = -A S0 Adag Schi is built from it, and the estimator runs
either a faithful phase-estimation circuit (`circuit` mode, stochastic under a
seed) or a deterministic nearest-grid rounding of the exact angle (`ideal`
mode).  Both modes charge the same 2^t - 1 Grover applications to the ledger.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .config import MAX_PHASE_BITS
from .dataio import QueryLedger
from .simcore import (
    _SQRT2_INV,
    Operation,
    Qft,
    ReflectAboutZero,
    ReflectWhere,
    RegisterLayout,
    SimulationError,
    StateVector,
    check_unit_columns,
    marginal_probs,
    new_state,
    operation_matrix,
    probability_of,
    sample,
)

PHASE_REGISTER = "__phase"

# Widest phase grid in either mode: 4^t must stay a finite double.
MAX_GRID_BITS = 511


@dataclass(frozen=True)
class StatePreparation:
    """Pipeline A plus the designation of the good subspace.

    `reflection_registers` are the registers the zero reflection S0 acts on;
    by default all of them.  When a pipeline is block diagonal in some passive
    index register (e.g. a feature index held in superposition), that register
    is excluded so Q stays block diagonal too.
    """

    name: str
    layout: RegisterLayout
    ops: tuple[Operation, ...]
    good_register: str
    good_predicate: Callable[[int], bool]
    reflection_registers: tuple[str, ...] = ()
    oracle_costs: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.good_register not in self.layout:
            raise SimulationError(f"good register {self.good_register!r} not in layout")
        refl = self.reflection_registers or tuple(self.layout.names)
        for name in refl:
            if name not in self.layout:
                raise SimulationError(f"reflection register {name!r} not in layout")
        object.__setattr__(self, "reflection_registers", tuple(refl))

    def apply(self, state: StateVector) -> StateVector:
        for op in self.ops:
            op.apply(state)
        return state

    def prepare(self) -> StateVector:
        return self.apply(new_state(self.layout))

    def good_probability(self) -> float:
        """Exact probability of the good subspace in A|0>."""
        return probability_of(self.prepare(), self.good_register, self.good_predicate)


class GroverOperator:
    """Q = -A S0 Adag Schi for a state preparation.

    `apply` runs Q on a state op by op: Schi, then A's ops undone in reverse,
    S0, and A's ops. `matrix` builds Q from a single replay of A: with A's
    dense matrix and the +-1 diagonals of the two reflections,
    Q = -(A diag(S0)) Adag diag(Schi), and every column of the product is
    checked for unit norm.
    """

    def __init__(self, prep: StatePreparation):
        self.prep = prep
        self.good_flip = ReflectWhere(prep.good_register, prep.good_predicate)
        self.zero_flip = ReflectAboutZero(prep.reflection_registers)
        # Schi, then Adag, S0 and A, in the order they act on a state.
        self.ops = (
            self.good_flip,
            *(op.dagger() for op in reversed(prep.ops)),
            self.zero_flip,
            *prep.ops,
        )

    def apply(self, state: StateVector, ledger: QueryLedger | None = None) -> StateVector:
        for op in self.ops:
            op.apply(state)
        state.amps *= -1.0
        if ledger is not None:
            ledger.add(grover=1)
        return state

    def matrix(self) -> np.ndarray:
        """Dense matrix of Q on the preparation's layout (small layouts)."""
        layout = self.prep.layout
        a = operation_matrix(self.prep.ops, layout)
        q = (a * -self.zero_flip.diagonal(layout)) @ a.conj().T
        q *= self.good_flip.diagonal(layout)
        check_unit_columns(q)
        return q


@dataclass(frozen=True)
class AEConfig:
    t_bits: int
    mode: str = "ideal"
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("circuit", "ideal"):
            raise ValueError(f"unknown AE mode {self.mode!r}")
        if not 1 <= self.t_bits <= MAX_GRID_BITS:
            raise ValueError(f"t_bits must be in 1..{MAX_GRID_BITS}, got {self.t_bits}")
        if self.mode == "circuit":
            if self.t_bits > MAX_PHASE_BITS:
                raise ValueError(
                    f"circuit mode supports at most {MAX_PHASE_BITS} phase bits"
                )
            if self.seed is None:
                raise ValueError("circuit mode requires a seed")


@dataclass(frozen=True)
class AEResult:
    """Estimated angle/amplitude on the grid {pi y / 2^t} folded into [0, pi/2]."""

    theta: float
    amplitude: float
    t_bits: int
    mode: str
    grover_count: int
    raw_outcome: int | None = None

    @property
    def grid_step(self) -> float:
        return math.pi / (1 << self.t_bits)

    @property
    def error_bound(self) -> float:
        """A-priori amplitude error bound at the estimated amplitude."""
        a = self.amplitude
        n = 1 << self.t_bits
        return 2.0 * math.pi * math.sqrt(max(a * (1.0 - a), 0.0)) / n + math.pi**2 / n**2

    def as_dict(self) -> dict:
        return {
            "theta": self.theta,
            "amplitude": self.amplitude,
            "t_bits": self.t_bits,
            "mode": self.mode,
            "grover_count": self.grover_count,
            "grid_step": self.grid_step,
            "error_bound": self.error_bound,
        }


def _fold_outcome(y: int, t: int) -> float:
    n = 1 << t
    return math.pi * min(y, n - y) / n


def _grid_amplitude(y: int, t: int) -> float:
    """sin^2(pi y / 2^t) for the folded outcome, exact at 0, 1/4 and 1/2.

    Uses the half-angle form so grid points that are exactly representable
    (amplitude 0, 1/2, 1) come out exact rather than off by one ulp.
    """
    n = 1 << t
    y = min(y, n - y)
    num, den = 2 * y, n
    if num == 0:
        return 0.0
    if 2 * num == den:
        return 0.5
    if num == den:
        return 1.0
    return 0.5 * (1.0 - math.cos(math.pi * num / den))


def qpe_state(prep: StatePreparation, t: int) -> StateVector:
    """Full phase-estimation state right before the phase-register measurement.

    Before the inverse QFT, row y of the (2^t, dim) amplitude array is
    Q^y A|0> / sqrt(2^t). A runs on the 2^n register only; row 0 is A|0>
    times (1/sqrt 2)^t, t multiplies as the t Hadamards would make, and rows
    [2^k, 2^(k+1)) are rows [0, 2^k) times Q^(2^k), the repeated square of
    Q's dense matrix, so each row gets its powers in the circuit's order.
    The ledger cost model still counts 2^t - 1 elementary applications.
    """
    layout = prep.layout.extended(PHASE_REGISTER, t)  # enforces the qubit cap
    psi = prep.prepare().amps
    for _ in range(t):
        psi = psi * _SQRT2_INV
    rows = np.empty((1 << t, prep.layout.dim), dtype=complex)
    rows[0] = psi

    power = GroverOperator(prep).matrix()
    for k in range(t):
        half = 1 << k
        np.matmul(rows[:half], power.T, out=rows[half : 2 * half])
        if k + 1 < t:
            power = power @ power
    state = StateVector(layout, rows.reshape(-1))
    Qft(PHASE_REGISTER, inverse=True).apply(state)
    state.check_norm()
    return state


def phase_distribution(prep: StatePreparation, t: int) -> np.ndarray:
    """Deterministic distribution of the phase-register outcome."""
    return marginal_probs(qpe_state(prep, t), PHASE_REGISTER)


def estimate_amplitude(
    prep: StatePreparation, config: AEConfig, ledger: QueryLedger | None = None
) -> AEResult:
    t = config.t_bits
    grover_count = (1 << t) - 1
    if ledger is not None:
        ledger.add(grover=grover_count)
        # Each Q uses A and its inverse; one extra A prepares the initial state.
        a_applications = 2 * grover_count + 1
        for kind, per_a in prep.oracle_costs.items():
            ledger.add(**{kind: per_a * a_applications})

    if config.mode == "ideal":
        a_true = prep.good_probability()
        theta = math.asin(math.sqrt(min(max(a_true, 0.0), 1.0)))
        y = round(theta * (1 << t) / math.pi)
        y = min(max(y, 0), 1 << (t - 1))
        theta_hat = math.pi * y / (1 << t)
        raw = None
        amplitude = _grid_amplitude(y, t)
    else:
        raw = sample(qpe_state(prep, t), PHASE_REGISTER, config.seed)
        theta_hat = _fold_outcome(raw, t)
        amplitude = _grid_amplitude(raw, t)
    return AEResult(
        theta=theta_hat,
        amplitude=amplitude,
        t_bits=t,
        mode=config.mode,
        grover_count=grover_count,
        raw_outcome=raw,
    )


def overlap_from_result(result: AEResult, scale: float) -> float:
    """scale * (2 a_hat - 1), the inner product the amplitude encodes."""
    return scale * (2.0 * result.amplitude - 1.0)


def bits_for_epsilon(eps_target: float) -> tuple[int, str | None]:
    """Smallest t with pi/2^t + pi^2/2^(2t) <= eps_target.

    Returns (t, mode_hint); the hint is "ideal" when t exceeds the circuit-mode
    phase-register cap. Raises ValueError, from grid_epsilon, when no grid of
    at most MAX_GRID_BITS bits is that fine.
    """
    if eps_target <= 0.0:
        raise ValueError("epsilon target must be positive")
    t = 1
    while grid_epsilon(t) > eps_target:
        t += 1
    hint = "ideal" if t > MAX_PHASE_BITS else None
    return t, hint


def grid_epsilon(t: int) -> float:
    """Worst-case amplitude error bound delivered by a t-bit grid."""
    if not 1 <= t <= MAX_GRID_BITS:
        raise ValueError(f"t_bits must be in 1..{MAX_GRID_BITS}, got {t}")
    return math.pi / (1 << t) + math.pi**2 / (1 << (2 * t))
