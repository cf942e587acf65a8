"""Canonical amplitude estimation on top of the statevector core.

A :class:`StatePreparation` names a replayable pipeline A mapping |0...0> to a
target state together with a predicate designating the good subspace.  The
Grover operator is Q = -A S0 Adag Schi, and the estimator runs either a
faithful phase-estimation circuit (`circuit` mode, stochastic under a seed) or
a deterministic nearest-grid rounding of the exact angle (`ideal` mode).  Both
modes charge the same 2^t - 1 Grover applications to the ledger.

A and Q are real orthogonal, and Q keeps the plane spanned by the good and bad
parts of A|0>, where it rotates by 2 theta (Brassard, Hoyer, Mosca, Tapp,
quant-ph/0005055, Lemma 1). Circuit mode therefore runs each row's phase
estimation in that plane (`phase_distributions`) and never builds Q; its
state before the inverse QFT is real, and `simcore.readout_rows` reads the
phase register off it exactly. The dense path (`GroverOperator.matrix`,
`_qpe_rows`, `qpe_state`) simulates the whole circuit; it is the reference the
`equivalence` suite and the tests compare against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .config import CLOSURE_TOL, MAX_PHASE_BITS, qubit_cap
from .dataio import QueryLedger
from .simcore import (
    _SQRT2_INV,
    Operation,
    ReflectAboutZero,
    ReflectWhere,
    RegisterLayout,
    SimulationError,
    StateVector,
    check_unit_norms,
    draw,
    marginal_probs,
    operation_matrix,
    readout_rows,
    walsh_start,
)

PHASE_REGISTER = "__phase"

# Widest phase grid in either mode: 4^t must stay a finite double.
MAX_GRID_BITS = 511

# The signs of u_g and u_b in Schi's diagonal, which split A|0> into them.
_GOOD_BAD_SIGNS = np.array([[-1.0], [1.0]])
# Signs that turn a rotation's first line [c, s], reversed, into its second [-s, c].
_ROTATION_SIGNS = np.array([1.0, -1.0])


def label_is_zero(label: int) -> bool:
    """Good predicate "label 0"; one function, so its reflections share a cached diagonal."""
    return label == 0


@dataclass(frozen=True)
class StatePreparation:
    """Pipeline A plus the designation of the good subspace.

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
    good_predicate: Callable[[int], bool]
    reflection_registers: tuple[str, ...] = ()
    oracle_costs: Mapping[str, int] = field(default_factory=dict)
    rows: int = 1

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
        """A|0> of every row, as a (rows, dim) stack. The replay starts from
        A's leading Hadamard blocks on |0>, built once per shape (`walsh_start`)."""
        start, rest = walsh_start(self.ops, self.layout)
        state = StateVector(self.layout, np.repeat(start[None], self.rows, axis=0))
        for op in rest:
            op.apply(state)
        return state

    def good_probabilities(self) -> np.ndarray:
        """Exact probability of the good subspace in each row's A|0>, in one replay."""
        probs = marginal_probs(self.prepare(), self.good_register)
        return sum((probs[:, b] for b in range(probs.shape[1]) if self.good_predicate(b)), np.zeros(self.rows))

    def reflections(self) -> tuple[ReflectWhere, ReflectAboutZero]:
        """Q's two reflections: Schi on the good subspace and S0 about |0>."""
        good_flip = ReflectWhere(self.good_register, self.good_predicate)
        return good_flip, ReflectAboutZero(self.reflection_registers)

    def good_probability(self) -> float:
        """Exact probability of the good subspace in (row 0's) A|0>."""
        return float(self.good_probabilities()[0])


class GroverOperator:
    """Q = -A S0 Adag Schi for a state preparation.

    `apply` runs Q on a state op by op: Schi, then A's ops undone in reverse,
    S0, and A's ops. `matrix` builds Q from a single replay of A: with A's
    dense matrix and the +-1 diagonals of the two reflections,
    Q = -(A diag(S0)) A^T diag(Schi), and every column of the product is
    checked for unit norm. A's matrix is kept as `_a` (stacked by row) for
    `_qpe_rows`, which reads A|0> from its column 0 rather than replaying A.
    Circuit mode builds none: `_subspace_rows` reads the two reflections' diagonals.
    """

    def __init__(self, prep: StatePreparation):
        self.prep = prep
        self.good_flip, self.zero_flip = prep.reflections()
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
        """Dense matrix of Q on the preparation's layout (small layouts); for a
        stacked preparation, the (rows, dim, dim) blocks of its rows. The
        reference path's Q; no pipeline builds it."""
        prep = self.prep
        self._a = a = operation_matrix(prep.ops, prep.layout, prep.rows)
        q = (a * -self.zero_flip.diagonal(prep.layout)) @ a.transpose(0, 2, 1)
        q *= self.good_flip.diagonal(prep.layout)
        check_unit_norms(q.transpose(0, 2, 1))  # its columns
        return q if prep.rows > 1 else q[0]


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
            if self.seed < 0:
                raise ValueError(f"circuit mode requires a non-negative seed, got {self.seed}")


@dataclass(frozen=True)
class AEResult:
    """Estimated angle/amplitude on the grid {pi y / 2^t} folded into [0, pi/2]."""

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

    @property
    def error_bound(self) -> float:
        """A-priori amplitude error bound at the estimated amplitude."""
        a = self.amplitude
        n = 1 << self.t_bits
        return 2.0 * math.pi * math.sqrt(max(a * (1.0 - a), 0.0)) / n + math.pi**2 / n**2


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


def _qpe_rows(prep: StatePreparation, t: int) -> tuple[RegisterLayout, np.ndarray]:
    """Each row's phase-estimation layout and the (rows, 2^t, dim) stack of
    the rows' real states right before the inverse QFT: the dense reference
    for `_subspace_rows`, reached through `qpe_state` and the tests only.

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
    check_unit_norms(rows.reshape(prep.rows, -1))
    return layout, rows


def qpe_state(prep: StatePreparation, t: int) -> StateVector:
    """`_qpe_rows` of a one-row preparation as a state: the dense reference
    for the phase-estimation circuit, which `phase_distributions` never runs."""
    layout, rows = _qpe_rows(prep, t)
    return StateVector(layout, rows.reshape(-1))


def _subspace_rows(prep: StatePreparation, t: int) -> np.ndarray:
    """The (rows, 2^t, 2) stack of the rows' states right before the inverse
    QFT, each line in its row's basis {u_g, u_b}: the normalised good and bad
    parts of A|0>, which span Q's invariant plane (BHMT Lemma 1).

    A is replayed once; its column 0 is A|0>. Q = -A S0 A^T Schi is applied
    to the (rows, 2, dim) basis by two matmuls and is never formed. Each image
    must have unit norm and close in the span within CLOSURE_TOL, and Q's
    block there must be a rotation [[c, s], [-s, c]]; otherwise
    SimulationError. On coefficients z = z_g + i z_b the block multiplies by
    w = c + i s, so line 0 is |psi_g| + i |psi_b| times (1/sqrt 2)^t and lines
    [2^k, 2^(k+1)) are lines [0, 2^k) times w^(2^k), each square scaled back
    to |w|. A row with a in {0, 1} has one basis vector, on which Q is +-1.
    """
    lay = prep.layout
    if t < 1 or PHASE_REGISTER in lay or lay.n_qubits + t > qubit_cap():
        RegisterLayout([*lay.registers, (PHASE_REGISTER, t)])  # raises its LayoutError
    a = operation_matrix(prep.ops, lay, prep.rows)
    schi, s0 = (flip.diagonal(lay) for flip in prep.reflections())
    parts = np.where(schi == _GOOD_BAD_SIGNS, a[:, None, :, 0], 0.0)  # (rows, 2, dim)
    norms = np.sqrt(np.add.reduce(parts * parts, axis=2))  # as np.linalg.norm sums them
    has = norms > 0.0
    basis = parts / np.where(has, norms, 1.0)[:, :, None]
    images = -(((basis * schi) @ a) * s0) @ a.transpose(0, 2, 1)
    check_unit_norms(images if has.all() else images[has])
    block = images @ basis.transpose(0, 2, 1)  # block[r, i, j] = <Q u_i, u_j>
    off = images - block @ basis
    residual = float(np.sqrt(np.add.reduce(off * off, axis=2).max()))
    if not residual <= CLOSURE_TOL:
        raise SimulationError(f"Q leaves span{{good, bad}} of A|0>: residual {residual:.3g}")
    if not has.all():  # a row with one basis vector: copy its +-1 to the empty diagonal entry
        block[:, 0, 0] += ~has[:, 0] * block[:, 1, 1]
        block[:, 1, 1] += ~has[:, 1] * block[:, 0, 0]
    c, s = block[:, 0, 0], block[:, 0, 1]
    skew = np.abs(block[:, 1] + block[:, 0, ::-1] * _ROTATION_SIGNS).max()
    if not skew <= CLOSURE_TOL:
        raise SimulationError(f"Q on span{{good, bad}} of A|0> is no rotation: off by {skew:.3g}")
    squares = []  # each row's w^(2^k) for k < t, squared on Python complex numbers
    for w in (c + 1j * s).tolist():
        squares.append([w])
        for _ in range(t - 1):
            squares[-1].append(w := w * w / abs(w))
    factors = np.array(squares).T[:, :, None]
    fill = np.empty((prep.rows, 1 << t), dtype=complex)
    lines = fill.view(np.float64).reshape(prep.rows, 1 << t, 2)
    lines[:, 0] = norms * _SQRT2_INV**t
    for k in range(t):
        half = 1 << k
        np.multiply(fill[:, :half], factors[k], out=fill[:, half : 2 * half])
    return lines


def phase_distributions(prep: StatePreparation, t: int) -> np.ndarray:
    """(rows, 2^t) distributions of the phase-register outcome, one per row,
    read from `_subspace_rows`: no dense Q and no (2^t, dim) state."""
    return readout_rows(_subspace_rows(prep, t), PHASE_REGISTER)


def phase_outcomes(prep: StatePreparation, config: AEConfig) -> list[int]:
    """The phase outcome y of each row of a preparation, in row order.

    Ideal mode takes the grid point nearest each row's exact angle, read from
    `good_probabilities`. Circuit mode draws row i from its phase
    distribution with seed config.seed + i.
    """
    t = config.t_bits
    if config.mode == "circuit":
        return draw(phase_distributions(prep, t), range(config.seed, config.seed + prep.rows))
    goods = prep.good_probabilities().tolist()
    thetas = [math.asin(math.sqrt(min(max(a, 0.0), 1.0))) for a in goods]
    return [min(max(round(theta * (1 << t) / math.pi), 0), 1 << (t - 1)) for theta in thetas]


def row_amps(dim: int, t_bits: int, mode: str) -> int:
    """Amplitudes `phase_outcomes` holds per row of a preparation of `dim`
    labels: in ideal mode the row's state; in circuit mode A's (dim, dim)
    block and the row's (2^t, 2) phase state of `_subspace_rows`."""
    return dim if mode == "ideal" else dim * dim + (2 << t_bits)


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
        a_applications = 2 * grover_count + 1
        ledger.add(
            grover=grover_count,
            **{kind: per_a * a_applications for kind, per_a in prep.oracle_costs.items()},
        )
    y = phase_outcomes(prep, config)[0] if outcome is None else outcome
    return AEResult(
        theta=_fold_outcome(y, t),
        amplitude=_grid_amplitude(y, t),
        t_bits=t,
        mode=config.mode,
        grover_count=grover_count,
        outcome=y,
    )


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
