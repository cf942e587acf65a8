"""Minimal dense statevector simulator over named registers.

Registers are declared once in a :class:`RegisterLayout`; the first declared
register occupies the least significant bits of the basis label and every
register after it sits above the previous one (little-endian throughout).
Operations address registers by name, so the same operation object can be
applied to any state whose layout contains registers of matching widths.

Amplitudes have shape (..., dim): leading axes stack independent states,
each norm-checked on its own. Every op keeps the shape and acts on each state
alone; a :class:`ValueKeyedRotation` with a (k, n) table gives row r of a
(k, ..., dim) stack the values in row r.

Amplitudes are real (float64): every operation A and Q use is real orthogonal
(Walsh-Hadamard blocks, keyed rotations, controlled versions of these, +-1
reflections). Each op re-checks the norm invariant except the reflections,
exact sign flips that cannot change it. No op has an inverse: Q is only a
dense matrix, from A's (`operation_matrix`) with the reflections run on its
rows. The one complex step, the inverse QFT of phase estimation, is never
applied to a state: `readout_rows` reads the register's outcome distribution
off real states with a half-spectrum FFT. :class:`Qft`, :class:`ReflectWhere`
and `measure` (with `draw` and `StateVector.norm_sq`) serve no product path;
the benchmark's tracer (`perfbench/tracer.py`) wraps them by name.
Only the stage path's layout-only data is cached (`RegisterLayout._shared`):
keyed rotations' plans and Walsh starts. Label fields and reflection
diagonals, which no estimator stage reads, are built on each call.
Digital arithmetic is not simulated gate by gate: an oracle write, a
controlled rotation on the written value and the uncompute collapse into one
:class:`ValueKeyedRotation` on the index.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import NORM_TOL, QUBIT_CAP, QadsimError


class SimulationError(QadsimError):
    """Base class for simulator contract violations."""


class LayoutError(SimulationError):
    """Invalid register layout (duplicate names, bad widths, cap exceeded)."""


class UnknownRegisterError(SimulationError):
    """An operation referenced a register the layout does not contain."""


_SQRT2_INV = 1.0 / np.sqrt(2.0)


class RegisterLayout:
    """Ordered collection of named registers; first register is the LSB."""

    def __init__(self, registers: Iterable[tuple[str, int]]):
        items = list(registers)
        names = [name for name, _ in items]
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate register names in {names}")
        self._widths: dict[str, int] = {}
        self._offsets: dict[str, int] = {}
        offset = 0
        for name, width in items:
            if width < 1:
                raise LayoutError(f"register {name!r} has width {width}; must be >= 1")
            self._widths[name] = width
            self._offsets[name] = offset
            offset += width
        if offset > QUBIT_CAP:
            raise LayoutError(f"layout needs {offset} qubits, exceeding the cap of {QUBIT_CAP}")
        self.n_qubits = offset
        self.dim = 1 << offset
        self.names = tuple(name for name, _ in items)
        self.registers = tuple((name, width) for name, width in items)

    def __contains__(self, name: str) -> bool:
        return name in self._widths

    def __eq__(self, other) -> bool:
        return isinstance(other, RegisterLayout) and self.registers == other.registers

    def __hash__(self) -> int:
        return hash(self.registers)

    def width(self, name: str) -> int:
        self._require(name)
        return self._widths[name]

    def offset(self, name: str) -> int:
        self._require(name)
        return self._offsets[name]

    def field(self, *names: str) -> np.ndarray:
        """Joint field of the named registers for every basis label, a new
        array on each call. The first name is the least significant part."""
        labels = np.arange(self.dim)
        joint = np.zeros(self.dim, dtype=labels.dtype)
        shift = 0
        for name in names:
            joint |= ((labels >> self.offset(name)) & ((1 << self.width(name)) - 1)) << shift
            shift += self._widths[name]
        return joint

    def _shared(self, build, names: tuple[str, ...]):
        """`build(registers, names)` from its cache, keyed on the registers so
        that equal layouts share it; a layout of more than 4,096 labels builds
        it on every call, so a cache of 64 8-byte arrays holds at most 2 MiB."""
        for name in names:
            self._require(name)
        if self.dim > 1 << 12:
            build = build.__wrapped__
        return build(self.registers, names)

    def _require(self, name: str) -> None:
        if name not in self._widths:
            raise UnknownRegisterError(f"no register named {name!r} (have {self.names})")


class StateVector:
    """Real (..., dim) amplitudes over a register layout. Each state's norm is an invariant."""

    def __init__(self, layout: RegisterLayout, amplitudes: np.ndarray):
        if amplitudes.shape[-1:] != (layout.dim,):
            raise LayoutError(
                f"amplitude array has shape {amplitudes.shape}, expected (..., {layout.dim})"
            )
        if np.iscomplexobj(amplitudes) and np.any(amplitudes.imag):
            raise SimulationError("amplitudes must be real; got a non-zero imaginary part")
        self.layout = layout
        self.amps = np.asarray(amplitudes.real, dtype=np.float64)

    @classmethod
    def _of(cls, layout: RegisterLayout, amps: np.ndarray) -> "StateVector":
        """A state over `amps` as it is, unchecked: the caller's array is
        already real float64 of shape (..., layout.dim)."""
        state = object.__new__(cls)
        state.layout, state.amps = layout, amps
        return state

    def copy(self) -> "StateVector":
        return StateVector(self.layout, self.amps.copy())

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps))

    def check_norm(self) -> None:
        """Raise SimulationError unless every state of the stack has unit norm."""
        check_unit_norms(self.amps)


def check_unit_norms(vectors: np.ndarray) -> None:
    """Raise SimulationError unless every vector on the last axis has unit norm."""
    if vectors.size == vectors.shape[-1] and abs(np.vdot(vectors, vectors) - 1.0) <= NORM_TOL:
        return  # one vector: the common case, without vecdot's fixed cost
    sq = np.vecdot(vectors, vectors)
    # Strict bounds: 1 -+ NORM_TOL round to the one double each that |sq - 1|
    # <= NORM_TOL refuses, so a vector there goes on to the exact check below.
    if sq.size == 0 or (sq.min() > 1.0 - NORM_TOL and sq.max() < 1.0 + NORM_TOL):
        return  # every vector, or none in an empty stack; a NaN fails
    sq = sq.reshape(-1)
    deviation = np.abs(sq - 1.0)
    worst = int(deviation.argmax())  # the first NaN, if any
    if not abs(sq[worst] - 1.0) <= NORM_TOL:
        raise SimulationError(f"norm drifted: |psi|^2 = {sq[worst]} (state {worst} of {sq.size})")


def new_state(layout: RegisterLayout, rows: int | None = None) -> StateVector:
    """All-zeros basis state |0...0> on the given layout, or a (rows, dim) stack of it."""
    amps = np.zeros(layout.dim if rows is None else (rows, layout.dim))
    amps[..., 0] = 1.0
    return StateVector(layout, amps)


# ---------------------------------------------------------------------------
# operations

class Operation:
    """A unitary acting on named registers; applied in place. `apply` runs the
    op's one unchecked pass over the stack, `kernel`, then the norm check if
    the op sets `checks_norm` (reflections, which keep every norm, do not)."""

    checks_norm = False

    def apply(self, state: StateVector) -> StateVector:
        self.kernel(state)
        if self.checks_norm:
            state.check_norm()
        return state

    def kernel(self, state: StateVector) -> None:
        raise NotImplementedError


# (-1)^b for target bit b, on a keyed rotation's (..., 2, low labels) axes.
_SIGNS = np.array([[1.0], [-1.0]])

_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) * _SQRT2_INV


# HadamardBlock contracts a register in slices of at most this many qubits, so
# its Walsh matrices stay at most 16 x 16 and its cost linear in the width.
_WALSH_MAX_BITS = 4


@lru_cache(maxsize=_WALSH_MAX_BITS)
def _walsh(width: int) -> np.ndarray:
    """H on each of `width` qubits as one 2^width x 2^width matrix (read-only)."""
    mat = np.ones((1, 1))
    for _ in range(width):
        mat = np.kron(mat, _H2)
    mat.flags.writeable = False
    return mat


class HadamardBlock(Operation):
    """H on every qubit of one register.

    The register is split, from its least significant qubit up, into slices of
    at most _WALSH_MAX_BITS qubits, and each slice's Walsh matrix is applied in
    one matmul: one GEMM on a (-1, 2^bits) view at offset 0 (the Walsh matrix is
    symmetric), a batch of small ones above it. Up to four qubits take one.
    """

    checks_norm = True

    def __init__(self, register: str):
        self.register = register

    def kernel(self, state: StateVector) -> None:
        lay = state.layout
        w = lay.width(self.register)
        off = lay.offset(self.register)
        shape = state.amps.shape
        for k in range(0, w, _WALSH_MAX_BITS):
            bits = min(_WALSH_MAX_BITS, w - k)
            if off + k == 0:
                state.amps = (state.amps.reshape(-1, 1 << bits) @ _walsh(bits)).reshape(shape)
            else:
                a = state.amps.reshape(-1, 1 << bits, 1 << (off + k))
                state.amps = np.matmul(_walsh(bits), a).reshape(shape)


class Qft:
    """Readout of one register after the inverse QFT
    |x> -> (1/sqrt N) sum_y exp(-2 pi i x y / N) |y> on it.

    `apply` is `readout_rows` with every other register in one row. The
    name is kept from the QFT operation this replaced, which profilers wrap.
    """

    def __init__(self, register: str):
        self.register = register

    def apply(self, state: StateVector) -> np.ndarray:
        lay = state.layout
        n = 1 << lay.width(self.register)
        lo = 1 << lay.offset(self.register)
        amps = np.moveaxis(state.amps.reshape(-1, n, lo), 0, 1)
        return readout_rows(np.ascontiguousarray(amps).reshape(1, n, -1), self.register)[0]


def readout_rows(amps: np.ndarray, register: str) -> np.ndarray:
    """(k, N) outcome distributions of a register after the inverse QFT, one
    per real state of a (k, N, rest) stack whose axis 1 is the register.

    The transformed amplitudes at y and N - y are complex conjugates, so
    P(y) = P(N - y) exactly: y = 0..N/2 come from `np.fft.rfft`, the rest are
    mirrored, and each row must sum to 1 within NORM_TOL.
    """
    return _readout(amps, register)[0]


def _readout(amps: np.ndarray, register: str) -> tuple[np.ndarray, np.ndarray]:
    """`readout_rows` and its checked (k,) row sums, which `_sample` takes."""
    n = amps.shape[1]
    spectrum = np.fft.rfft(amps, axis=1)
    parts = spectrum.view(np.float64)  # re and im of each entry, side by side
    half = np.einsum("kyl,kyl->ky", parts, parts) / n
    probs = np.concatenate([half, half[:, n - half.shape[1] : 0 : -1]], axis=1)
    total = probs.sum(axis=1)
    if not np.abs(total - 1.0).max() <= NORM_TOL:
        raise SimulationError(f"readout of {register!r} drifted: sum P = {total}")
    return probs, total


class ValueKeyedRotation(Operation):
    """Rotation of a one-qubit target keyed by the label of the key registers.

    For key label j with value v = values[j], acts on the target as the
    reflection [[v, s], [s, -v]] with s = sqrt(1 - v^2), sending |0> to
    v|0> + s|1>.  Hermitian, hence self-inverse.  This is the exact label-level
    emulation of an oracle write / digital controlled rotation / oracle
    uncompute sandwich: the digital value register starts and ends in |0>, so
    the composite acts only on the key registers and the target. For an
    oracle writing the fixed-point word of x_j and a rotation by the decoded
    word over C, the matching values are values[j] = quantize(x_j) / C.

    A (k, n) table stands for k rotations: it applies only to a (k, ..., dim)
    stack, and the states under row r of the stack get values[r]. Either
    way, n must be the key registers' label count.
    """

    checks_norm = True

    def __init__(self, key_registers: Sequence[str], target: str, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        peak = float(np.abs(values).max(initial=0.0))
        if not peak <= 1.0 + 1e-12:  # a NaN fails too
            raise SimulationError(f"rotation value magnitude {peak} is not at most 1")
        self.key_registers = tuple(key_registers)
        self.target = target
        # Only a value past 1 by rounding needs the clip; a copy either way.
        self.values = np.maximum(np.minimum(values, 1.0), -1.0) if peak > 1.0 else values.copy()
        # The (rows, n) table and its s, once per op: the kernel only lays them out.
        self._table = self.values.reshape(-1, self.values.shape[-1])
        self._s = np.sqrt(np.maximum(1.0 - self._table * self._table, 0.0))

    def kernel(self, state: StateVector) -> None:
        labels, lo, key = state.layout._shared(_rotation_plan, (*self.key_registers, self.target))
        rows, n = self._table.shape
        if n != labels:
            raise SimulationError(f"{n} values cannot key the {labels} labels of {self.key_registers}")
        if self.values.ndim == 2 and state.amps.shape[:-1][:1] != (rows,):
            raise SimulationError(f"{rows} rows cannot key a stack of {state.amps.shape}")
        # Axes: table row, the rest of the stack, high labels, target bit, low labels.
        # Bit b gets (-1)^b v a_b + s a_(1-b): v a_0 + s a_1 and s a_0 - v a_1, bit for bit.
        if key is None:  # a label's key is its low part; the high labels join the stack axis
            v, s = self._table.reshape(rows, 1, 1, 1, lo), self._s.reshape(rows, 1, 1, 1, lo)
        else:
            v, s = self._table[:, None, key], self._s[:, None, key]
        a = state.amps.reshape(rows, -1, v.shape[2], 2, lo)
        out = v * _SIGNS * a + s * a[..., ::-1, :]
        state.amps = out.reshape(state.amps.shape)


@lru_cache(maxsize=64)
def _rotation_plan(registers, names) -> tuple[int, int, np.ndarray | None]:
    """A keyed rotation's layout-only data, names being its key registers and
    then its target: the key registers' label count, lo, the count of labels
    below the one-qubit target, and the key field read where the target is 0,
    shape (high labels, 1, lo). The key is None when the key registers are,
    from the least significant up, every register below the target, so that
    a label's key is its low part."""
    *keys, target = names
    widths, order = dict(registers), [name for name, _ in registers]
    below = order[: order.index(target)]
    if widths[target] != 1:
        raise UnknownRegisterError(f"rotation target {target!r} must be 1 qubit")
    labels, lo = 1 << sum(widths[name] for name in keys), 1 << sum(widths[name] for name in below)
    if keys == below:
        return labels, lo, None
    key = RegisterLayout(registers).field(*keys).reshape(-1, 2, lo)[:, :1, :]
    key.flags.writeable = False  # cached, so shared by every rotation of this shape
    return labels, lo, key


class Controlled(Operation):
    """Apply an inner operation only where a control register holds a value.
    Its kernel runs on that value's slice alone, a stack over the layout without
    the control (so an inner op that names it raises), and the stack is checked once."""

    checks_norm = True

    def __init__(self, control: str, control_value: int, inner: Operation):
        self.control = control
        self.control_value = control_value
        self.inner = inner

    def kernel(self, state: StateVector) -> None:
        lay = state.layout
        width, lo = lay.width(self.control), 1 << lay.offset(self.control)
        if not 0 <= self.control_value < 1 << width:
            raise SimulationError(f"control value {self.control_value} is out of {self.control!r}")
        shape = state.amps.shape
        amps = state.amps.reshape(-1, 1 << width, lo)  # a copy if amps is not contiguous
        part = StateVector._of(_without(lay, self.control), amps[:, self.control_value].reshape(*shape[:-1], -1))
        self.inner.kernel(part)
        amps[:, self.control_value] = part.amps.reshape(-1, lo)
        state.amps = amps.reshape(shape)


@lru_cache(maxsize=64)
def _without(layout: RegisterLayout, register: str) -> RegisterLayout:
    """The layout without one register: the labels of a slice where it holds one value."""
    return RegisterLayout(item for item in layout.registers if item[0] != register)


class ReflectAboutZero(Operation):
    """I - 2|0><0| restricted to the named registers (sign flip on |0...0>)."""

    def __init__(self, registers: Sequence[str]):
        self.registers = tuple(registers)

    def kernel(self, state: StateVector) -> None:
        state.amps *= np.where(state.layout.field(*self.registers) == 0, -1.0, 1.0)


class ReflectWhere(Operation):
    """Sign flip on basis states whose register label satisfies a predicate."""

    def __init__(self, register: str, predicate: Callable[[int], bool]):
        self.register = register
        self.predicate = predicate

    def kernel(self, state: StateVector) -> None:
        lay = state.layout
        hits = np.fromiter(map(self.predicate, range(1 << lay.width(self.register))), dtype=bool)
        state.amps *= np.where(hits[lay.field(self.register)], -1.0, 1.0)


# ---------------------------------------------------------------------------
# functional surface

def marginal_probs(state: StateVector, register: str) -> np.ndarray:
    """Probability of each label of one register: shape (..., 2^width), one
    distribution per state of a stack."""
    lay = state.layout
    blk = 1 << lay.width(register)
    lo = 1 << lay.offset(register)
    stack = state.amps.shape[:-1]
    f = state.amps.reshape(-1, lay.dim // (blk * lo), blk, lo)
    return np.einsum("rhbl,rhbl->rb", f, f).reshape(*stack, blk)


def draw(probs: np.ndarray, rngs: Sequence[np.random.Generator | int]) -> list[int]:
    """One outcome per row of a (k, n) stack of distributions, row i drawn
    with rngs[i] (a Generator or a seed) by the steps of
    `Generator.choice(n, p=row / row.sum())`, so with its outcome. A row
    choice rejects is rejected: one with a negative or NaN entry, or with a
    sum that is not finite and positive, the one way a row normalised here
    can miss choice's check that it sums to 1. So is a count of rngs not k.
    """
    total = probs.sum(axis=1)
    if not (probs.min() >= 0.0 and total.min() > 0.0 and total.max() < np.inf):
        raise SimulationError("outcome probabilities must be finite, >= 0 and sum to 1")
    return _sample(probs, total, rngs)


def _sample(probs: np.ndarray, total: np.ndarray, rngs: Sequence[np.random.Generator | int]) -> list[int]:
    """`draw` on rows whose (k,) sums `total` are known finite and positive."""
    if len(rngs) != len(probs):
        raise SimulationError(f"{len(rngs)} generators or seeds for {len(probs)} rows")
    cdf = np.cumsum(probs / total[:, None], axis=1)
    cdf /= cdf[:, -1:]
    return [int(row.searchsorted(uniform(rng), side="right")) for row, rng in zip(cdf, rngs)]


def uniform(rng: np.random.Generator | int) -> float:
    """`default_rng(rng).random()`: a Generator's next uniform, or a seed's
    first. A seed's is PCG64's next_double, the top 53 bits of its first raw
    output times 2^-53, taken without building a Generator."""
    if isinstance(rng, np.random.Generator):
        return rng.random()
    return (int(np.random.PCG64(rng).random_raw()) >> 11) * 2.0**-53


def measure(
    state: StateVector, register: str, rng: np.random.Generator | int
) -> tuple[int, StateVector]:
    """Sample one outcome for a register and collapse the state onto it."""
    if state.amps.ndim != 1:
        raise SimulationError(f"measure collapses one state, not a stack of {state.amps.shape}")
    outcome = draw(marginal_probs(state, register)[None], [rng])[0]
    state.amps[state.layout.field(register) != outcome] = 0.0
    norm = np.sqrt(state.norm_sq())
    if norm == 0.0:
        raise SimulationError("collapsed onto a zero-probability outcome")
    state.amps /= norm
    state.check_norm()
    return outcome, state


def operation_matrix(ops: Sequence[Operation], layout: RegisterLayout, rows=None) -> np.ndarray:
    """Dense matrix of a composed operation sequence (small layouts only); the
    dense reference's replay of A, which no pipeline runs.

    The ops run once on a stack of every basis column, so each op's own norm
    check checks every column's norm. The stack is checked once more only if
    the last op does not check itself; else its check covers every op before
    it. With `rows`, the ops run on a (rows, dim, dim) stack, and row r of a
    (rows, n) rotation table keys block r of the (rows, dim, dim) result.
    """
    if layout.dim > 1 << 12:
        raise SimulationError("operation_matrix supports at most 12 qubits")
    eye = np.eye(layout.dim)
    batch = StateVector(layout, eye if rows is None else np.repeat(eye[None], rows, axis=0))
    for op in ops:
        op.apply(batch)
    if not ops or not ops[-1].checks_norm:
        batch.check_norm()
    return np.ascontiguousarray(np.swapaxes(batch.amps, -1, -2))


def walsh_start(ops: Sequence[Operation], layout: RegisterLayout) -> tuple[np.ndarray, Sequence[Operation]]:
    """The leading HadamardBlocks of `ops` applied to |0> (shape (dim,)), and
    the ops after them. The result is read-only. It depends on no value, so
    it is shared (`RegisterLayout._shared`), keyed on the layout's registers
    and the blocks' registers; the blocks' norm checks run when it is built."""
    lead = 0
    while lead < len(ops) and type(ops[lead]) is HadamardBlock:
        lead += 1
    return layout._shared(_walsh_start, tuple(op.register for op in ops[:lead])), ops[lead:]


@lru_cache(maxsize=64)
def _walsh_start(registers, names: tuple[str, ...]) -> np.ndarray:
    state = new_state(RegisterLayout(registers))
    for register in names:
        HadamardBlock(register).apply(state)
    state.amps.flags.writeable = False
    return state.amps
