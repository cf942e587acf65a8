"""Signed fixed-point encoding and reversible arithmetic gates.

Arithmetic gates (subtraction, squaring, logarithm, the multiply-adder, the
sine-based A gate) are emulated as classical label maps with XOR-accumulate
writes, so every gate is a basis permutation and its own inverse.  Gate-level
reversible circuit synthesis is out of scope; each application is attributed
unit cost in the query ledger by the calling pipeline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import SIGMA_MIN, QadsimError
from .simcore import BasisTransform, StateVector


class RangeError(QadsimError):
    """A real value does not fit the fixed-point format."""


class DomainError(QadsimError):
    """A gate input lies outside its function's domain (e.g. ln of <= 0)."""


@dataclass(frozen=True)
class FixedPointFormat:
    """Two's-complement format: 1 sign bit, int_bits, frac_bits."""

    int_bits: int = 8
    frac_bits: int = 16

    @property
    def word_bits(self) -> int:
        return 1 + self.int_bits + self.frac_bits

    @property
    def max_value(self) -> float:
        return (2 ** (self.int_bits + self.frac_bits) - 1) * 2.0**-self.frac_bits

    @property
    def min_value(self) -> float:
        return -(2 ** (self.int_bits + self.frac_bits)) * 2.0**-self.frac_bits

    @property
    def resolution(self) -> float:
        return 2.0**-self.frac_bits

    def encode(self, value: float) -> int:
        """Word for a real value, round-to-nearest-even. Raises on overflow."""
        if not math.isfinite(value):
            raise RangeError(f"cannot encode non-finite value {value}")
        scaled = value * (1 << self.frac_bits)
        word = round(scaled)  # python round is round-half-even
        lo = -(1 << (self.int_bits + self.frac_bits))
        hi = (1 << (self.int_bits + self.frac_bits)) - 1
        if not lo <= word <= hi:
            raise RangeError(f"value {value} overflows format {self}")
        return word & ((1 << self.word_bits) - 1)

    def decode(self, word: int) -> float:
        """Real value of a word (two's complement)."""
        n = self.word_bits
        word &= (1 << n) - 1
        if word >= 1 << (n - 1):
            word -= 1 << n
        return word * 2.0**-self.frac_bits

    def quantize(self, value: float) -> float:
        """decode(encode(value)); the value as a digital register would hold it."""
        return self.decode(self.encode(value))


@dataclass(frozen=True)
class ArithmeticGate:
    """Classical function over source registers, XOR-written to a target.

    All registers carry fixed-point words; the label map decodes the sources,
    evaluates `fn`, and XORs the encoded result into the target, which makes
    the gate an involution.
    """

    name: str
    sources: tuple[str, ...]
    target: str
    fn: Callable[..., float]
    source_formats: tuple[FixedPointFormat, ...]
    target_format: FixedPointFormat

    def build(self) -> tuple[BasisTransform, dict[tuple[int, ...], Exception]]:
        """Label table plus the source combinations outside fn's domain.

        Invalid source words map to identity in the table; the caller decides
        whether the state actually touches them (see apply_arithmetic).
        """
        widths = [f.word_bits for f in self.source_formats] + [self.target_format.word_bits]
        registers = list(self.sources) + [self.target]
        invalid: dict[tuple[int, ...], Exception] = {}

        def label_map(fields: tuple[int, ...]) -> tuple[int, ...]:
            src_words = fields[:-1]
            tgt_word = fields[-1]
            if src_words in invalid:
                return fields
            args = [f.decode(w) for f, w in zip(self.source_formats, src_words)]
            try:
                enc = self.target_format.encode(self.fn(*args))
            except DomainError as exc:
                invalid[src_words] = exc
                return fields
            except RangeError as exc:
                invalid[src_words] = RangeError(f"{self.name} gate on sources {args}: {exc}")
                return fields
            return (*src_words, tgt_word ^ enc)

        return BasisTransform.from_function(registers, widths, label_map), invalid

    def as_transform(self) -> BasisTransform:
        return self.build()[0]


def apply_arithmetic(state: StateVector, gate: ArithmeticGate) -> StateVector:
    """Apply a gate; raises if the state has support on inputs outside the
    gate function's domain or whose result overflows the target format."""
    if gate.target in gate.sources:
        raise ValueError(f"gate {gate.name!r}: target overlaps sources")
    transform, invalid = gate.build()
    if invalid:
        lay = state.layout
        labels = np.flatnonzero(np.abs(state.amps) > 1e-14)
        for label in labels:
            key = tuple(int(lay.extract(int(label), name)) for name in gate.sources)
            if key in invalid:
                raise invalid[key]
    return transform.apply(state)


def _uniform(fmt, n):
    return tuple([fmt] * n)


def subtract_gate(a: str, b: str, target: str, fmt: FixedPointFormat) -> ArithmeticGate:
    """target ^= encode(a - b); the multiply-adder in subtraction mode."""
    return ArithmeticGate("subtract", (a, b), target, lambda x, y: x - y, _uniform(fmt, 2), fmt)


def square_gate(source: str, target: str, fmt: FixedPointFormat) -> ArithmeticGate:
    return ArithmeticGate("square", (source,), target, lambda x: x * x, _uniform(fmt, 1), fmt)


def ln_gate(source: str, target: str, fmt: FixedPointFormat) -> ArithmeticGate:
    def f(x: float) -> float:
        if x <= 0.0:
            raise DomainError(f"ln of non-positive value {x}")
        return math.log(x)

    return ArithmeticGate("ln", (source,), target, f, _uniform(fmt, 1), fmt)


def reciprocal_scale_gate(
    numerator: str,
    divisor: str,
    target: str,
    scale: float,
    fmt: FixedPointFormat,
    sigma_floor: float = SIGMA_MIN,
) -> ArithmeticGate:
    """target ^= encode(numerator / (divisor * scale)), with a divisor floor."""

    def f(num: float, div: float) -> float:
        if div < sigma_floor:
            raise DomainError(f"divisor {div} below floor {sigma_floor}")
        return num / (div * scale)

    return ArithmeticGate("reciprocal_scale", (numerator, divisor), target, f, _uniform(fmt, 2), fmt)


def a_gate(source: str, target: str, scale: float, fmt: FixedPointFormat) -> ArithmeticGate:
    """The composite gate computing scale * (2 sin^2(pi * source) - 1).

    The source register holds an angle as a fraction of pi in [0, 1); the
    result is the overlap value the angle encodes, rescaled by `scale`.
    """

    def f(x: float) -> float:
        return scale * (2.0 * math.sin(math.pi * x) ** 2 - 1.0)

    return ArithmeticGate("a_gate", (source,), target, f, _uniform(fmt, 1), fmt)
