"""Signed fixed-point encoding of the values digital registers hold.

The source algorithms write estimates (means, variances, overlaps) into
digital registers and compute with them there. qadsim simulates each oracle
write / arithmetic / uncompute sequence as one `ValueKeyedRotation` keyed on
the index, so no value register is simulated; what remains digital is the
rounding. :class:`FixedPointFormat` is that rounding: the pipelines pass every
stored estimate through `quantize`, and a value the format cannot hold raises
:class:`RangeError`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .config import QadsimError

# Widest word a format may have: one machine word.
MAX_WORD_BITS = 64


class RangeError(QadsimError):
    """A real value does not fit the fixed-point format."""


@dataclass(frozen=True)
class FixedPointFormat:
    """Two's-complement format: 1 sign bit, int_bits, frac_bits."""

    int_bits: int = 8
    frac_bits: int = 16

    def __post_init__(self):
        if self.int_bits < 0 or self.frac_bits < 0:
            raise ValueError(
                f"fixed-point widths must be non-negative, got int_bits={self.int_bits}, "
                f"frac_bits={self.frac_bits}"
            )
        if self.word_bits > MAX_WORD_BITS:
            raise ValueError(
                f"fixed-point word of {self.word_bits} bits exceeds {MAX_WORD_BITS} bits"
            )

    @property
    def word_bits(self) -> int:
        return 1 + self.int_bits + self.frac_bits

    def encode(self, value: float) -> int:
        """Word for a real value, round-to-nearest-even. Raises on overflow."""
        if not math.isfinite(value):
            raise RangeError(f"cannot encode non-finite value {value}")
        scaled = value * (1 << self.frac_bits)
        if not math.isfinite(scaled):
            raise RangeError(f"value {value} overflows format {self}")
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
