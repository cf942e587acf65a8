"""Canonical amplitude estimation on top of the statevector core.

A :class:`StatePreparation` names a replayable pipeline A mapping |0...0> to a
target state together with a one-qubit good register, whose label 0 is the
good subspace.  The Grover operator is Q = -A S0 Adag Schi, and the estimator
runs either the phase-estimation circuit's outcome distribution (`circuit`
mode, stochastic under a seed) or a deterministic nearest-grid rounding of the
exact angle (`ideal` mode).  Both modes charge the same 2^t - 1 Grover
applications to the ledger.

When S0 acts on every register, Q rotates the plane of the good and bad parts
of A|0> by 2 theta, so the phase distribution depends on A only through their
masses g and b (Brassard, Hoyer, Mosca, Tapp, quant-ph/0005055, Lemma 1).
Both modes replay A once per preparation, on |0> (`StatePreparation.masses`).
`phase_outcomes` reads the rows of several preparations at once: in circuit
mode `_plane_masses` checks each preparation and returns its rows' (g, b),
`_mass_rows` writes every row's real pre-QFT state in that plane from the
masses as one stack, and one readout and one draw, row i with seed + i,
finish it. The readout (`simcore.readout_half`) reads the phase register's
outcomes y = 0..2^(t-1) off the stack exactly, and the draw
(`simcore.draw_half`) takes the rest from P(y) = P(2^t - y), so no
full-length distribution is built. A pipeline hands it a wave, the rows of
its stages that share a t (`pipelines.EstimatorRun.means`), so a run pays the
stack's fixed NumPy cost once per wave, not once per stage. The dense path (`GroverOperator.matrix`
and `qpe_state`) simulates the whole circuit; it is the reference the
`equivalence` suite and the tests compare against. Q is only a dense matrix,
A's with the two reflections run on its rows, never run op by op. Both are
zero reflections: S0 on the reflection registers, Schi on the good qubit.
The benchmark's tracer (`perfbench/tracer.py`) wraps `qpe_state`,
`GroverOperator.matrix` and `good_probability` by name, and reads
`AEResult.raw_outcome`, which nothing else does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .config import MAX_PHASE_BITS, QUBIT_CAP
from .dataio import QueryLedger
from .simcore import (
    _SQRT2_INV,
    Operation,
    ReflectAboutZero,
    RegisterLayout,
    SimulationError,
    StateVector,
    check_unit_norms,
    draw_half,
    marginal_probs,
    operation_matrix,
    readout_half,
    readout_rows,
    walsh_start,
)

PHASE_REGISTER = "__phase"

MODES = ("circuit", "ideal")  # the phase-estimation circuit, or nearest-grid rounding

# Widest phase grid in either mode: 4^t must stay a finite double.
MAX_GRID_BITS = 511


@dataclass(frozen=True)
class StatePreparation:
    """Pipeline A plus its one-qubit good register, whose label 0 is good.

    `reflection_registers` are the registers the zero reflection S0 acts on;
    by default all of them.  When a pipeline is block diagonal in some passive
    index register (e.g. a feature index held in superposition), that register
    is excluded so Q stays block diagonal too.

    A stacked preparation (`rows` = k > 1) stands for k preparations on the
    same layout that differ only in the values of a rotation with a (k, n)
    table: `prepare` runs A on a (k, dim) stack of |0>, and Q and the phase
    estimation run on k blocks, one per row.
    """

    name: str
    layout: RegisterLayout
    ops: tuple[Operation, ...]
    good_register: str
    reflection_registers: tuple[str, ...] = ()
    oracle_costs: Mapping[str, int] = field(default_factory=dict)
    rows: int = 1

    def __post_init__(self):
        if (self.good_register, 1) not in self.layout.registers:
            raise SimulationError(f"good register {self.good_register!r} is not one qubit of the layout")
        refl = self.reflection_registers or tuple(self.layout.names)
        for name in refl:
            if name not in self.layout:
                raise SimulationError(f"reflection register {name!r} not in layout")
        object.__setattr__(self, "reflection_registers", tuple(refl))

    def restacked(self, name: str, ops: tuple[Operation, ...], oracle_costs: Mapping[str, int], rows: int):
        """A copy with other ops, costs and rows. The register checks read only the
        layout and registers it keeps, which passed them, so they do not run again."""
        prep = object.__new__(StatePreparation)
        prep.__dict__.update(self.__dict__, name=name, ops=ops, oracle_costs=oracle_costs, rows=rows)
        return prep

    def prepare(self) -> StateVector:
        """A|0> of every row, as a (rows, dim) stack. The replay starts from
        A's leading Hadamard blocks on |0>, built once per shape (`walsh_start`)."""
        start, rest = walsh_start(self.ops, self.layout)
        state = StateVector._of(self.layout, start[None].repeat(self.rows, axis=0))
        for op in rest:
            op.apply(state)
        return state

    def masses(self) -> tuple[np.ndarray, np.ndarray]:
        """Good and bad masses (g, b) of each row's A|0>, in one replay: the
        two columns of the good register's marginal, labels 0 and 1."""
        probs = marginal_probs(self.prepare(), self.good_register)
        return probs[:, 0], probs[:, 1]

    def good_probability(self) -> float:
        """Exact probability of the good subspace in (row 0's) A|0>."""
        return float(self.masses()[0][0])


class GroverOperator:
    """Q = -A S0 Adag Schi for a state preparation, as the dense reference's
    matrix only; no pipeline builds it (circuit mode: `_mass_rows`).

    `matrix` builds Q from a single replay of A: S0 runs on the rows of -A's
    dense matrix and Schi on the rows of the product with A^T, so
    Q = -(A S0) A^T Schi, and every column of Q is checked for unit norm.
    A's matrix is kept as `_a` (stacked by row) for `qpe_state`, which reads
    A|0> from its column 0 rather than replaying A.
    """

    def __init__(self, prep: StatePreparation):
        self.prep = prep

    def matrix(self) -> np.ndarray:
        """Dense matrix of Q on the preparation's layout (small layouts); for a
        stacked preparation, the (rows, dim, dim) blocks of its rows."""
        prep, lay = self.prep, self.prep.layout
        self._a = a = operation_matrix(prep.ops, lay, prep.rows)
        # Run as a stack of states, each row of a matrix M gets the diagonal: M diag(S).
        # S0 flips |0> of the reflection registers, Schi |0> of the good register.
        zero_flip = ReflectAboutZero(prep.reflection_registers)
        q = zero_flip.apply(StateVector._of(lay, -a)).amps @ a.transpose(0, 2, 1)
        q = ReflectAboutZero((prep.good_register,)).apply(StateVector._of(lay, q)).amps
        check_unit_norms(q.transpose(0, 2, 1))  # its columns
        return q if prep.rows > 1 else q[0]


@dataclass(frozen=True)
class AEConfig:
    t_bits: int
    mode: str = "ideal"
    seed: int | None = None

    def __post_init__(self):
        check_mode(self.mode, self.seed)
        if not 1 <= self.t_bits <= MAX_GRID_BITS:
            raise ValueError(f"t_bits must be in 1..{MAX_GRID_BITS}, got {self.t_bits}")
        if self.mode == "circuit" and self.t_bits > MAX_PHASE_BITS:
            raise ValueError(f"circuit mode supports at most {MAX_PHASE_BITS} phase bits")


def check_mode(mode: str, seed: int | None) -> None:
    """Refuse (ValueError) an unknown mode, and in circuit mode a missing or negative seed."""
    if mode not in MODES:
        raise ValueError(f"unknown AE mode {mode!r}")
    if mode == "circuit":
        if seed is None:
            raise ValueError("circuit mode requires a seed")
        if seed < 0:
            raise ValueError(f"circuit mode requires a non-negative seed, got {seed}")


class AEResult(NamedTuple):
    """Estimated angle/amplitude on the grid {pi y / 2^t} folded into [0, pi/2].
    An immutable named tuple: one is built per AE run, so it must be cheap."""

    theta: float
    amplitude: float
    t_bits: int
    mode: str
    grover_count: int
    outcome: int | None = None

    @property
    def raw_outcome(self) -> int | None:
        """The measured phase outcome y; ideal mode measures none."""
        return self.outcome if self.mode == "circuit" else None


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
    """The state right before the inverse QFT, with a t-bit phase register
    on top of the preparation's layout: the dense reference for the
    phase-estimation circuit and for `_mass_rows`, which `phase_distributions`
    never runs. One state for a one-row preparation; for a stacked one, the
    (rows, 2^t dim) stack of its rows' states.

    Line y of a row's (2^t, dim) state is Q^y A|0> / sqrt(2^t). A is replayed
    once, on the 2^n register only, to build Q; its column 0 is A|0>. Line 0
    is A|0> times (1/sqrt 2)^t, t multiplies as the t Hadamards would make,
    and lines [2^k, 2^(k+1)) are lines [0, 2^k) times Q^(2^k), the repeated
    square of Q's dense matrix, so each line gets its powers in the circuit's
    order. The ledger cost model still counts 2^t - 1 elementary applications.
    """
    layout = RegisterLayout([*prep.layout.registers, (PHASE_REGISTER, t)])
    grover = GroverOperator(prep)
    power = grover.matrix().reshape(grover._a.shape)
    rows = np.empty((prep.rows, 1 << t, layout.dim >> t))
    rows[:, 0] = grover._a[:, :, 0]
    for _ in range(t):
        rows[:, 0] *= _SQRT2_INV
    for k in range(t):
        half = 1 << k
        np.matmul(rows[:, :half], power.transpose(0, 2, 1), out=rows[:, half : 2 * half])
        if k + 1 < t:
            power = power @ power
    states = rows.reshape(prep.rows, -1)
    check_unit_norms(states)
    return StateVector(layout, states if prep.rows > 1 else states[0])


def _plane_masses(prep: StatePreparation, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's good and bad masses (g, b) (`masses`), once the preparation
    passes the checks its t-bit phase estimation needs: the phase register
    fits its layout, and S0 acts on every register, so that Q keeps the plane
    of the good and bad parts of A|0> (BHMT Lemma 1); a preparation whose S0
    leaves one out is refused."""
    lay = prep.layout
    if t < 1 or PHASE_REGISTER in lay or lay.n_qubits + t > QUBIT_CAP:
        RegisterLayout([*lay.registers, (PHASE_REGISTER, t)])  # raises its LayoutError
    left_out = [name for name in lay.names if name not in prep.reflection_registers]
    if left_out:
        raise SimulationError(f"Q leaves span{{good, bad}} of A|0>: S0 leaves out {left_out}")
    return prep.masses()


def _mass_rows(good: np.ndarray, bad: np.ndarray, t: int) -> np.ndarray:
    """The (rows, 2^t, 2) stack of the rows' states right before the inverse
    QFT, row i from the masses good[i] and bad[i] of its `_plane_masses`, each
    line in its row's basis {u_g, u_b}: the normalised good and bad parts of
    A|0>, which span Q's invariant plane.

    On coefficients z = z_g + i z_b, Q multiplies by w = ((b - g) - 2i sqrt(gb)) / n,
    n = g + b, so line 0 is (sqrt(g/n), sqrt(b/n)) times (1/sqrt 2)^t and
    lines [2^k, 2^(k+1)) are lines [0, 2^k) times w^(2^k), each square scaled
    back to |w|. A row with a in {0, 1} gets w = +-1. Every step is
    elementwise, so a row's lines do not depend on the rows beside it, but
    for the last ulp a stacked multiply may round differently.
    """
    total = good + bad
    squares = []  # each row's w^(2^k) for k < t, squared on Python complex numbers
    for c, s in zip(((bad - good) / total).tolist(), (-2.0 * np.sqrt(good * bad) / total).tolist()):
        squares.append([w := complex(c, s)])
        for _ in range(t - 1):
            squares[-1].append(w := w * w / abs(w))
    factors = np.array(squares).T[:, :, None]
    fill = np.empty((len(total), 1 << t), dtype=complex)
    lines = fill.view(np.float64).reshape(len(total), 1 << t, 2)
    lines[:, 0] = (np.sqrt(np.array([good, bad]) / total) * _SQRT2_INV**t).T
    for k in range(t):
        half = 1 << k
        np.multiply(fill[:, :half], factors[k], out=fill[:, half : 2 * half])
    return lines


def phase_distributions(prep: StatePreparation, t: int) -> np.ndarray:
    """(rows, 2^t) distributions of the phase-register outcome, one per row,
    read from `_mass_rows`: no dense Q and no (2^t, dim) state."""
    return readout_rows(_mass_rows(*_plane_masses(prep, t), t), PHASE_REGISTER)


def phase_outcomes(preps: Sequence[StatePreparation], config: AEConfig) -> list[int]:
    """The phase outcome y of each row of the preparations, in order: the
    rows of preps[0], then those of preps[1], and so on.

    Ideal mode takes the grid point nearest each row's exact angle, read from
    the good masses. Circuit mode reads every row as one stack: one fill of
    the preparations' masses, one half-spectrum readout and one draw by the
    inverse CDF, row i (counted over all the preparations) with seed
    config.seed + i. That is `draw` on the row's full `readout_rows`
    distribution, seed for seed but for a uniform within rounding of a
    step of the CDF.
    """
    t = config.t_bits
    if config.mode == "circuit":
        masses = [_plane_masses(p, t) for p in preps]
        good, bad = masses[0] if len(masses) == 1 else (np.concatenate(side) for side in zip(*masses))
        half, total = readout_half(_mass_rows(good, bad, t), PHASE_REGISTER)
        return draw_half(half, total, range(config.seed, config.seed + len(good)))
    thetas = [math.asin(math.sqrt(min(max(a, 0.0), 1.0)))
              for prep in preps for a in prep.masses()[0].tolist()]
    return [min(max(round(theta * (1 << t) / math.pi), 0), 1 << (t - 1)) for theta in thetas]


def row_amps(dim: int, t_bits: int, mode: str) -> int:
    """Amplitudes `phase_outcomes` holds per row of a preparation of `dim`
    labels: the row's state, and in circuit mode also its (2^t, 2) phase
    state of `_mass_rows`."""
    return dim if mode == "ideal" else dim + (2 << t_bits)


def estimate_amplitude(
    prep: StatePreparation, config: AEConfig, ledger: QueryLedger | None = None,
    *, outcome: int | None = None,
) -> AEResult:
    """One AE run, charged to `ledger`: the `phase_outcomes` of the
    preparation's row 0, unless a stage's call has already given it (`outcome`)."""
    t = config.t_bits
    grover_count = (1 << t) - 1
    if ledger is not None:
        # Each Q uses A and its inverse; one extra A prepares the initial state.
        ledger.charge(grover_count, prep.oracle_costs, 2 * grover_count + 1)
    y = phase_outcomes([prep], config)[0] if outcome is None else outcome
    return AEResult(_fold_outcome(y, t), _grid_amplitude(y, t), t, config.mode, grover_count, y)


def bits_for_epsilon(eps_target: float) -> int:
    """Smallest t with pi/2^t + pi^2/2^(2t) <= eps_target.

    Raises ValueError unless eps_target > 0 (so on NaN), and from
    grid_epsilon when no grid of at most MAX_GRID_BITS bits is that fine.
    The search starts at floor(log2(pi / eps_target)), clamped.
    """
    if not eps_target > 0.0:
        raise ValueError(f"epsilon target must be positive, got {eps_target}")
    # log2(pi / eps_target) as a difference: pi / eps_target overflows for a subnormal eps.
    gap = math.log2(math.pi) - math.log2(eps_target)
    t = int(min(max(gap, 1.0), float(MAX_GRID_BITS)))
    while t > 1 and grid_epsilon(t - 1) <= eps_target:
        t -= 1
    while grid_epsilon(t) > eps_target:
        t += 1
    return t


def grid_epsilon(t: int) -> float:
    """Worst-case amplitude error bound delivered by a t-bit grid."""
    if not 1 <= t <= MAX_GRID_BITS:
        raise ValueError(f"t_bits must be in 1..{MAX_GRID_BITS}, got {t}")
    return math.pi / (1 << t) + math.pi**2 / (1 << (2 * t))
