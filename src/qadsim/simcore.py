"""Minimal dense statevector simulator over named registers.

Registers are declared once in a :class:`RegisterLayout`; the first declared
register occupies the least significant bits of the basis label and every
register after it sits above the previous one (little-endian throughout).
Operations address registers by name, so the same operation object can be
applied to any state whose layout contains registers of matching widths.

Operations either act as dense linear maps on one register's label space
(Hadamard blocks, QFT) or as basis-label permutations (:class:`BasisTransform`),
which are exactly norm-preserving.  Every mutating entry point re-checks the
norm invariant.
"""
from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .config import NORM_TOL, PURITY_TOL, qubit_cap


class SimulationError(Exception):
    """Base class for simulator contract violations."""


class LayoutError(SimulationError):
    """Invalid register layout (duplicate names, bad widths, cap exceeded)."""


class UnknownRegisterError(SimulationError):
    """An operation referenced a register the layout does not contain."""


class NonInvertibleTransformError(SimulationError):
    """A basis transform's label table is not a bijection."""


class EntangledDiscardError(SimulationError):
    """Attempted to drop a register that is still entangled with the rest."""


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

    def __contains__(self, name: str) -> bool:
        return name in self._widths

    def width(self, name: str) -> int:
        self._require(name)
        return self._widths[name]

    def offset(self, name: str) -> int:
        self._require(name)
        return self._offsets[name]

    def mask(self, name: str) -> int:
        return ((1 << self.width(name)) - 1) << self.offset(name)

    def extract(self, labels, name: str):
        """Register field of full basis label(s); vectorized over arrays."""
        return (labels >> self.offset(name)) & ((1 << self.width(name)) - 1)

    def replace(self, labels, name: str, field):
        """Full label(s) with the named register's field overwritten."""
        return (labels & ~self.mask(name)) | (field << self.offset(name))

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
        return float(np.sum(np.abs(self.amps) ** 2))

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


def _apply_bit_matrix(state: StateVector, bitpos: int, mat: np.ndarray) -> None:
    dim = state.amps.size
    lo = 1 << bitpos
    a = state.amps.reshape(dim // (2 * lo), 2, lo)
    state.amps = np.einsum("ab,hbl->hal", mat, a).reshape(-1)


_H2 = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV


class HadamardBlock(Operation):
    """H on every qubit of one register."""

    def __init__(self, register: str):
        self.register = register

    def apply(self, state: StateVector) -> StateVector:
        lay = state.layout
        off = lay.offset(self.register)
        for k in range(lay.width(self.register)):
            _apply_bit_matrix(state, off + k, _H2)
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
        w = lay.width(self.register)
        blk = 1 << w
        lo = 1 << lay.offset(self.register)
        a = state.amps.reshape(state.amps.size // (blk * lo), blk, lo)
        if self.inverse:
            a = np.fft.fft(a, axis=1) / np.sqrt(blk)
        else:
            a = np.fft.ifft(a, axis=1) * np.sqrt(blk)
        state.amps = np.ascontiguousarray(a).reshape(-1)
        state.check_norm()
        return state

    def dagger(self) -> "Qft":
        return Qft(self.register, inverse=not self.inverse)


class BasisTransform(Operation):
    """Invertible map on the joint label space of the named registers.

    The map is given as a lookup table over the joint label, with the first
    named register in the least significant position of the key.  Acts as a
    permutation matrix on the full state, so norms are preserved exactly.
    """

    def __init__(self, registers: Sequence[str], widths: Sequence[int], table: np.ndarray):
        table = np.asarray(table, dtype=np.int64)
        size = 1 << sum(widths)
        if table.shape != (size,):
            raise NonInvertibleTransformError(
                f"table has shape {table.shape}, expected ({size},)"
            )
        if not np.array_equal(np.sort(table), np.arange(size)):
            raise NonInvertibleTransformError("label table is not a bijection")
        self.registers = tuple(registers)
        self.widths = tuple(widths)
        self.table = table

    @classmethod
    def from_function(
        cls,
        registers: Sequence[str],
        widths: Sequence[int],
        fn: Callable[[tuple[int, ...]], tuple[int, ...]],
    ) -> "BasisTransform":
        """Build the table from a python function on per-register label tuples."""
        size = 1 << sum(widths)
        table = np.empty(size, dtype=np.int64)
        for key in range(size):
            fields = []
            rest = key
            for w in widths:
                fields.append(rest & ((1 << w) - 1))
                rest >>= w
            out = fn(tuple(fields))
            if len(out) != len(widths):
                raise NonInvertibleTransformError("map returned wrong number of fields")
            new_key = 0
            shift = 0
            for val, w in zip(out, widths):
                if not 0 <= val < (1 << w):
                    raise NonInvertibleTransformError(
                        f"field value {val} out of range for width {w}"
                    )
                new_key |= val << shift
                shift += w
            table[key] = new_key
        return cls(registers, widths, table)

    def apply(self, state: StateVector) -> StateVector:
        lay = state.layout
        for name, w in zip(self.registers, self.widths):
            if lay.width(name) != w:
                raise UnknownRegisterError(
                    f"register {name!r} has width {lay.width(name)}, transform expects {w}"
                )
        labels = np.arange(lay.dim)
        key = np.zeros(lay.dim, dtype=np.int64)
        shift = 0
        for name, w in zip(self.registers, self.widths):
            key |= lay.extract(labels, name) << shift
            shift += w
        new_key = self.table[key]
        new_labels = labels
        shift = 0
        for name, w in zip(self.registers, self.widths):
            field = (new_key >> shift) & ((1 << w) - 1)
            new_labels = lay.replace(new_labels, name, field)
            shift += w
        out = np.empty_like(state.amps)
        out[new_labels] = state.amps
        state.amps = out
        state.check_norm()
        return state

    def dagger(self) -> "BasisTransform":
        inv = np.empty_like(self.table)
        inv[self.table] = np.arange(self.table.size)
        return BasisTransform(self.registers, self.widths, inv)


class ValueKeyedRotation(Operation):
    """Rotation of a one-qubit target keyed by the label of the key registers.

    For key label k with value v = values[k], acts on the target as the
    reflection [[v, s], [s, -v]] with s = sqrt(1 - v^2), sending |0> to
    v|0> + s|1>.  Hermitian, hence self-inverse.  This is the exact label-level
    emulation of an oracle write / digital controlled rotation / oracle
    uncompute sandwich: the digital value register starts and ends in |0>, so
    the composite acts only on the key registers and the target.
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
        tmask = 1 << lay.offset(self.target)
        labels = np.arange(lay.dim)
        base = labels[(labels & tmask) == 0]
        key = np.zeros(base.size, dtype=np.int64)
        shift = 0
        for name in self.key_registers:
            key |= lay.extract(base, name) << shift
            shift += lay.width(name)
        v = self.values[key]
        s = np.sqrt(np.clip(1.0 - v * v, 0.0, None))
        a0 = state.amps[base].copy()
        a1 = state.amps[base | tmask].copy()
        state.amps[base] = v * a0 + s * a1
        state.amps[base | tmask] = s * a0 - v * a1
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
        labels = np.arange(lay.dim)
        off_branch = lay.extract(labels, self.control) != self.control_value
        state.amps[off_branch] = old[off_branch]
        state.check_norm()
        return state

    def dagger(self) -> "Controlled":
        return Controlled(self.control, self.control_value, self.inner.dagger())


class ReflectAboutZero(Operation):
    """I - 2|0><0| restricted to the named registers (sign flip on |0...0>)."""

    def __init__(self, registers: Sequence[str]):
        self.registers = tuple(registers)

    def apply(self, state: StateVector) -> StateVector:
        lay = state.layout
        labels = np.arange(lay.dim)
        at_zero = np.ones(lay.dim, dtype=bool)
        for name in self.registers:
            at_zero &= lay.extract(labels, name) == 0
        state.amps[at_zero] *= -1.0
        return state

    def dagger(self) -> "ReflectAboutZero":
        return self


class ReflectWhere(Operation):
    """Sign flip on basis states whose register label satisfies a predicate."""

    def __init__(self, register: str, predicate: Callable[[int], bool]):
        self.register = register
        self.predicate = predicate

    def apply(self, state: StateVector) -> StateVector:
        lay = state.layout
        labels = np.arange(lay.dim)
        field = lay.extract(labels, self.register)
        hits = np.fromiter(
            (self.predicate(int(v)) for v in range(1 << lay.width(self.register))),
            dtype=bool,
        )
        state.amps[hits[field]] *= -1.0
        return state

    def dagger(self) -> "ReflectWhere":
        return self


# ---------------------------------------------------------------------------
# functional surface

def marginal_probs(state: StateVector, register: str) -> np.ndarray:
    """Probability of each label of one register (length 2^width)."""
    lay = state.layout
    w = lay.width(register)
    blk = 1 << w
    lo = 1 << lay.offset(register)
    p = np.abs(state.amps.reshape(state.amps.size // (blk * lo), blk, lo)) ** 2
    return p.sum(axis=(0, 2))


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
    lay = state.layout
    labels = np.arange(lay.dim)
    keep = lay.extract(labels, register) == outcome
    state.amps[~keep] = 0.0
    norm = np.sqrt(np.sum(np.abs(state.amps) ** 2))
    if norm == 0.0:
        raise SimulationError("collapsed onto a zero-probability outcome")
    state.amps /= norm
    state.check_norm()
    return outcome, state


def discard(state: StateVector, register: str) -> StateVector:
    """Drop an unentangled register, or raise if it is still entangled.

    The register must be in a product state with the rest (reduced purity
    >= 1 - PURITY_TOL); silent partial trace is deliberately not offered.
    """
    lay = state.layout
    w = lay.width(register)
    blk = 1 << w
    lo = 1 << lay.offset(register)
    hi = state.amps.size // (blk * lo)
    a = state.amps.reshape(hi, blk, lo).transpose(1, 0, 2).reshape(blk, hi * lo)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    purity = float(np.sum(s**4))
    if purity < 1.0 - PURITY_TOL:
        raise EntangledDiscardError(
            f"register {register!r} is entangled (reduced purity {purity})"
        )
    rest = vh[0] * s[0]
    # Fix the global phase so the dominant register amplitude is real positive.
    lead = u[np.argmax(np.abs(u[:, 0])), 0]
    rest = rest * (lead / abs(lead))
    items = [(n, lay.width(n)) for n in lay.names if n != register]
    new_layout = RegisterLayout(items)
    out = StateVector(new_layout, rest.reshape(hi, lo).reshape(-1))
    out.check_norm()
    return out


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
        drift = np.sum(np.abs(self.amps.reshape(self.columns, -1)) ** 2, axis=1) - 1.0
        worst = int(np.argmax(np.abs(drift)))
        if abs(drift[worst]) > NORM_TOL:
            raise SimulationError(f"column {worst} norm drifted: |psi|^2 = {1.0 + drift[worst]}")


def operation_matrix(ops: Sequence[Operation], layout: RegisterLayout) -> np.ndarray:
    """Dense matrix of a composed operation sequence (small layouts only).

    The ops run once on all basis columns together (see `_ColumnBatch`), and
    every column's norm is checked after every op. The batch holds dim^2
    amplitudes; it is exempt from the qubit cap, which the layout itself
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
