"""Minimal dense statevector simulator over named registers.

Registers are declared once in a :class:`RegisterLayout`; the first declared
register occupies the least significant bits of the basis label and every
register after it sits above the previous one (little-endian throughout).
Operations address registers by name, so the same operation object can be
applied to any state whose layout contains registers of matching widths.

Operations act as dense linear maps on one register's label space (Hadamard
blocks, QFT, keyed rotations, and controlled versions of these), and each of
them re-checks the norm invariant. The reflections are exact sign flips (a
+-1 diagonal), which cannot change the norm, so they are not re-checked.
Digital arithmetic is not simulated gate by gate: an oracle write, a
controlled rotation on the written value and the uncompute collapse into one
:class:`ValueKeyedRotation` on the index.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .config import NORM_TOL, QadsimError, qubit_cap


class SimulationError(QadsimError):
    """Base class for simulator contract violations."""


class LayoutError(SimulationError):
    """Invalid register layout (duplicate names, bad widths, cap exceeded)."""


class UnknownRegisterError(SimulationError):
    """An operation referenced a register the layout does not contain."""


_SQRT2_INV = 1.0 / np.sqrt(2.0)


class RegisterLayout:
    """Ordered collection of named registers; first register is the LSB."""

    def __init__(
        self,
        registers: Mapping[str, int] | Iterable[tuple[str, int]],
        *,
        capped: bool = True,
    ):
        if isinstance(registers, Mapping):
            items = list(registers.items())
        else:
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
        cap = qubit_cap()
        if capped and offset > cap:
            raise LayoutError(f"layout needs {offset} qubits, exceeding the cap of {cap}")
        self.n_qubits = offset
        self.dim = 1 << offset
        self.names = tuple(name for name, _ in items)
        self.registers = tuple((name, width) for name, width in items)

    def __contains__(self, name: str) -> bool:
        return name in self._widths

    def width(self, name: str) -> int:
        self._require(name)
        return self._widths[name]

    def offset(self, name: str) -> int:
        self._require(name)
        return self._offsets[name]

    def extract(self, labels, name: str):
        """Register field of full basis label(s); vectorized over arrays."""
        return (labels >> self.offset(name)) & ((1 << self.width(name)) - 1)

    def field(self, *names: str) -> np.ndarray:
        """Joint field of the named registers for every basis label.

        The first name is the least significant part of the joint value. The
        array is read-only. For layouts of at most _FIELD_CACHE_MAX_DIM labels
        it is shared: it comes from a cache keyed on the layout's registers, so
        equal layouts share it. Larger layouts compute it on every call.
        """
        for name in names:
            self._require(name)
        if self.dim > _FIELD_CACHE_MAX_DIM:
            return _label_field.__wrapped__(self.registers, names)
        return _label_field(self.registers, names)

    def extended(self, name: str, width: int, *, capped: bool = True) -> "RegisterLayout":
        """New layout with one more register appended above the existing ones.

        `capped=False` exempts the new layout from the qubit cap; only the
        batched matrix build uses it, for its column-label register.
        """
        items = [(n, self._widths[n]) for n in self.names]
        items.append((name, width))
        return RegisterLayout(items, capped=capped)

    def _require(self, name: str) -> None:
        if name not in self._widths:
            raise UnknownRegisterError(f"no register named {name!r} (have {self.names})")


# Cached label fields are int64 arrays of at most this many labels, and at most
# 64 of them are kept, so the cache never holds more than 2 MiB.
_FIELD_CACHE_MAX_DIM = 1 << 12


@lru_cache(maxsize=64)
def _label_field(registers: tuple[tuple[str, int], ...], names: tuple[str, ...]) -> np.ndarray:
    widths = dict(registers)
    offsets = {}
    n_qubits = 0
    for name, width in registers:
        offsets[name] = n_qubits
        n_qubits += width
    labels = np.arange(1 << n_qubits)
    joint = np.zeros(labels.size, dtype=labels.dtype)
    shift = 0
    for name in names:
        joint |= ((labels >> offsets[name]) & ((1 << widths[name]) - 1)) << shift
        shift += widths[name]
    joint.flags.writeable = False
    return joint


class StateVector:
    """Complex amplitudes over a register layout. Norm is an invariant."""

    def __init__(self, layout: RegisterLayout, amplitudes: np.ndarray):
        if amplitudes.shape != (layout.dim,):
            raise LayoutError(
                f"amplitude array has shape {amplitudes.shape}, expected ({layout.dim},)"
            )
        self.layout = layout
        self.amps = np.asarray(amplitudes, dtype=complex)

    def copy(self) -> "StateVector":
        return StateVector(self.layout, self.amps.copy())

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def check_norm(self) -> None:
        if abs(self.norm_sq() - 1.0) > NORM_TOL:
            raise SimulationError(f"statevector norm drifted: |psi|^2 = {self.norm_sq()}")


def new_state(layout: RegisterLayout) -> StateVector:
    """All-zeros basis state |0...0> on the given layout."""
    amps = np.zeros(layout.dim, dtype=complex)
    amps[0] = 1.0
    return StateVector(layout, amps)


# ---------------------------------------------------------------------------
# operations

class Operation:
    """A unitary acting on named registers; applied in place."""

    def apply(self, state: StateVector) -> StateVector:
        raise NotImplementedError

    def dagger(self) -> "Operation":
        raise NotImplementedError


_H2 = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV


# HadamardBlock contracts a register in slices of at most this many qubits, so
# its Walsh matrices stay at most 16 x 16 and its cost linear in the width.
_WALSH_MAX_BITS = 4


@lru_cache(maxsize=_WALSH_MAX_BITS)
def _walsh(width: int) -> np.ndarray:
    """H on each of `width` qubits as one 2^width x 2^width matrix (read-only)."""
    mat = np.ones((1, 1), dtype=complex)
    for _ in range(width):
        mat = np.kron(mat, _H2)
    mat.flags.writeable = False
    return mat


class HadamardBlock(Operation):
    """H on every qubit of one register.

    The register is split, from its least significant qubit up, into slices of
    at most _WALSH_MAX_BITS qubits, and each slice's Walsh matrix is applied in
    one matmul; a register of up to four qubits takes one.
    """

    def __init__(self, register: str):
        self.register = register

    def apply(self, state: StateVector) -> StateVector:
        lay = state.layout
        w = lay.width(self.register)
        off = lay.offset(self.register)
        for k in range(0, w, _WALSH_MAX_BITS):
            bits = min(_WALSH_MAX_BITS, w - k)
            a = state.amps.reshape(-1, 1 << bits, 1 << (off + k))
            state.amps = np.matmul(_walsh(bits), a).reshape(-1)
        state.check_norm()
        return state

    def dagger(self) -> "HadamardBlock":
        return self


class Qft(Operation):
    """(Inverse) discrete Fourier transform on one register's label space.

    QFT maps |x> to (1/sqrt(N)) sum_y exp(+2 pi i x y / N) |y>.
    """

    def __init__(self, register: str, inverse: bool = False):
        self.register = register
        self.inverse = inverse

    def apply(self, state: StateVector) -> StateVector:
        lay = state.layout
        blk = 1 << lay.width(self.register)
        lo = 1 << lay.offset(self.register)
        a = state.amps.reshape(-1, blk, lo)
        transform = np.fft.fft if self.inverse else np.fft.ifft
        state.amps = transform(a, axis=1, norm="ortho").reshape(-1)
        state.check_norm()
        return state

    def dagger(self) -> "Qft":
        return Qft(self.register, inverse=not self.inverse)


class ValueKeyedRotation(Operation):
    """Rotation of a one-qubit target keyed by the label of the key registers.

    For key label k with value v = values[k], acts on the target as the
    reflection [[v, s], [s, -v]] with s = sqrt(1 - v^2), sending |0> to
    v|0> + s|1>.  Hermitian, hence self-inverse.  This is the exact label-level
    emulation of an oracle write / digital controlled rotation / oracle
    uncompute sandwich: the digital value register starts and ends in |0>, so
    the composite acts only on the key registers and the target. For an
    oracle writing the fixed-point word of x_k and a rotation by the decoded
    word over C, the matching values are values[k] = quantize(x_k) / C.
    """

    def __init__(self, key_registers: Sequence[str], target: str, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if np.any(np.abs(values) > 1.0 + 1e-12):
            bad = float(np.max(np.abs(values)))
            raise SimulationError(f"rotation value magnitude {bad} exceeds 1")
        self.key_registers = tuple(key_registers)
        self.target = target
        self.values = np.clip(values, -1.0, 1.0)

    def apply(self, state: StateVector) -> StateVector:
        lay = state.layout
        if lay.width(self.target) != 1:
            raise UnknownRegisterError(f"rotation target {self.target!r} must be 1 qubit")
        lo = 1 << lay.offset(self.target)
        # Axis 1 is the target bit; the key is read where the target is 0.
        v = self.values[lay.field(*self.key_registers).reshape(-1, 2, lo)[:, 0, :]]
        s = np.sqrt(np.clip(1.0 - v * v, 0.0, None))
        a = state.amps.reshape(-1, 2, lo)
        out = np.empty_like(a)
        out[:, 0, :] = v * a[:, 0, :] + s * a[:, 1, :]
        out[:, 1, :] = s * a[:, 0, :] - v * a[:, 1, :]
        state.amps = out.reshape(-1)
        state.check_norm()
        return state

    def dagger(self) -> "ValueKeyedRotation":
        return self


class Controlled(Operation):
    """Apply an inner operation only where a control register holds a value."""

    def __init__(self, control: str, control_value: int, inner: Operation):
        self.control = control
        self.control_value = control_value
        self.inner = inner

    def apply(self, state: StateVector) -> StateVector:
        lay = state.layout
        touched = getattr(self.inner, "key_registers", ()) + (
            getattr(self.inner, "target", None),
            getattr(self.inner, "register", None),
        )
        if self.control in [t for t in touched if t is not None]:
            raise SimulationError(f"control register {self.control!r} overlaps the target")
        old = state.amps.copy()
        self.inner.apply(state)
        np.copyto(state.amps, old, where=lay.field(self.control) != self.control_value)
        state.check_norm()
        return state

    def dagger(self) -> "Controlled":
        return Controlled(self.control, self.control_value, self.inner.dagger())


class ReflectAboutZero(Operation):
    """I - 2|0><0| restricted to the named registers (sign flip on |0...0>)."""

    def __init__(self, registers: Sequence[str]):
        self.registers = tuple(registers)

    def diagonal(self, layout: RegisterLayout) -> np.ndarray:
        """The +-1 diagonal: -1 where every named register reads 0."""
        return np.where(layout.field(*self.registers) == 0, -1.0, 1.0)

    def apply(self, state: StateVector) -> StateVector:
        state.amps *= self.diagonal(state.layout)
        return state

    def dagger(self) -> "ReflectAboutZero":
        return self


class ReflectWhere(Operation):
    """Sign flip on basis states whose register label satisfies a predicate."""

    def __init__(self, register: str, predicate: Callable[[int], bool]):
        self.register = register
        self.predicate = predicate

    def diagonal(self, layout: RegisterLayout) -> np.ndarray:
        """The +-1 diagonal: -1 where the register's label satisfies the predicate."""
        hits = np.fromiter(
            (self.predicate(v) for v in range(1 << layout.width(self.register))),
            dtype=bool,
        )
        return np.where(hits[layout.field(self.register)], -1.0, 1.0)

    def apply(self, state: StateVector) -> StateVector:
        state.amps *= self.diagonal(state.layout)
        return state

    def dagger(self) -> "ReflectWhere":
        return self


# ---------------------------------------------------------------------------
# functional surface

def marginal_probs(state: StateVector, register: str) -> np.ndarray:
    """Probability of each label of one register (length 2^width)."""
    lay = state.layout
    blk = 1 << lay.width(register)
    lo = 1 << lay.offset(register)
    f = np.ascontiguousarray(state.amps).reshape(-1, blk, lo).view(np.float64)
    return np.einsum("hbl,hbl->b", f, f)


def probability_of(
    state: StateVector, register: str, predicate: Callable[[int], bool]
) -> float:
    """Total probability of register labels satisfying the predicate."""
    probs = marginal_probs(state, register)
    return float(sum(p for label, p in enumerate(probs) if predicate(label)))


def sample(state: StateVector, register: str, rng: np.random.Generator | int) -> int:
    """Draw one measurement outcome for a register; the state is left as is."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    probs = marginal_probs(state, register)
    probs = probs / probs.sum()
    return int(rng.choice(probs.size, p=probs))


def measure(
    state: StateVector, register: str, rng: np.random.Generator | int
) -> tuple[int, StateVector]:
    """Sample one outcome for a register and collapse the state onto it."""
    outcome = sample(state, register, rng)
    state.amps[state.layout.field(register) != outcome] = 0.0
    norm = np.sqrt(state.norm_sq())
    if norm == 0.0:
        raise SimulationError("collapsed onto a zero-probability outcome")
    state.amps /= norm
    state.check_norm()
    return outcome, state


_COLUMN_REGISTER = "__col"


class _ColumnBatch(StateVector):
    """Every basis column of a layout in one state.

    The columns are told apart by an extra register `__col` above the layout's
    own, so an operation, which addresses registers by name, acts on all of
    them in one call. Each column must keep unit norm on its own: a weight
    shift between columns that leaves the total intact still fails the check.
    """

    def __init__(self, layout: RegisterLayout):
        super().__init__(
            layout.extended(_COLUMN_REGISTER, layout.n_qubits, capped=False),
            np.eye(layout.dim, dtype=complex).reshape(-1),
        )
        self.columns = layout.dim

    def check_norm(self) -> None:
        check_unit_columns(self.amps.reshape(self.columns, -1).T)


def check_unit_columns(mat: np.ndarray) -> None:
    """Raise SimulationError unless every column of a matrix has unit norm."""
    rows = np.ascontiguousarray(mat.T).view(np.float64)
    drift = np.einsum("ij,ij->i", rows, rows) - 1.0
    worst = int(np.argmax(np.abs(drift)))
    if abs(drift[worst]) > NORM_TOL:
        raise SimulationError(f"column {worst} norm drifted: |psi|^2 = {1.0 + drift[worst]}")


def operation_matrix(ops: Sequence[Operation], layout: RegisterLayout) -> np.ndarray:
    """Dense matrix of a composed operation sequence (small layouts only).

    The ops run once on all basis columns together (see `_ColumnBatch`), so
    each op's own norm check checks every column's norm. The result is
    checked once more, for ops that do not check themselves. The batch holds
    dim^2 amplitudes; it is exempt from the qubit cap, which the layout itself
    already passed.
    """
    dim = layout.dim
    if dim > 1 << 12:
        raise SimulationError("operation_matrix supports at most 12 qubits")
    batch = _ColumnBatch(layout)
    for op in ops:
        op.apply(batch)
    batch.check_norm()
    return np.ascontiguousarray(batch.amps.reshape(dim, dim).T)
