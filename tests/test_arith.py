import numpy as np
import pytest

from qadsim.arith import FixedPointFormat, RangeError

FMT = FixedPointFormat(int_bits=2, frac_bits=3)  # 6-bit words


def decode(fmt: FixedPointFormat, word: int) -> float:
    """Real value of a word (two's complement): the reference `quantize` is
    checked against."""
    n = fmt.word_bits
    word &= (1 << n) - 1
    if word >= 1 << (n - 1):
        word -= 1 << n
    return word * 2.0**-fmt.frac_bits


class TestFixedPointFormat:
    def test_word_bits(self):
        assert FMT.word_bits == 6
        assert FixedPointFormat().word_bits == 25

    def test_roundtrip_exact_values(self):
        for v in (0.0, 1.0, -1.0, 2.875, -4.0, 3.875):
            assert decode(FMT, FMT.encode(v)) == v

    def test_round_half_even(self):
        # 0.0625 is exactly between grid points 0 and 0.125
        assert FMT.quantize(0.0625) == 0.0
        assert FMT.quantize(0.1875) == 0.25

    def test_overflow(self):
        with pytest.raises(RangeError):
            FMT.encode(4.0)
        with pytest.raises(RangeError):
            FMT.encode(-4.125)
        with pytest.raises(RangeError):
            FMT.encode(float("nan"))
        # Finite, but infinite once scaled by 2^frac_bits.
        with pytest.raises(RangeError, match="overflows"):
            FixedPointFormat().encode(1e308)

    def test_two_complement_negative(self):
        word = FMT.encode(-0.125)
        assert word == (1 << 6) - 1  # all ones
        assert decode(FMT, word) == -0.125

    def test_resolution_bound(self):
        rng = np.random.default_rng(0)
        for v in rng.uniform(-3.5, 3.5, size=50):
            assert abs(FMT.quantize(v) - v) <= 2.0**-FMT.frac_bits / 2  # half the resolution

    @pytest.mark.parametrize("widths", [(-1, 16), (8, -1), (100_000_000_000, 16), (48, 16)])
    def test_bad_widths_rejected(self, widths):
        with pytest.raises(ValueError):
            FixedPointFormat(*widths)

    def test_widest_word_accepted(self):
        fmt = FixedPointFormat(47, 16)
        assert fmt.word_bits == 64
        assert fmt.quantize(-1.5) == -1.5
