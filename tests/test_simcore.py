import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadsim import simcore
from qadsim.arith import FixedPointFormat
from qadsim.simcore import (
    Controlled,
    HadamardBlock,
    LayoutError,
    Operation,
    Qft,
    ReflectAboutZero,
    ReflectWhere,
    RegisterLayout,
    SimulationError,
    StateVector,
    UnknownRegisterError,
    ValueKeyedRotation,
    _walsh_start,
    check_unit_norms,
    draw,
    draw_half,
    marginal_probs,
    measure,
    new_state,
    operation_matrix,
    readout_rows,
    uniform,
    walsh_start,
)
from qadsim.config import NORM_TOL
from qadsim.pipelines import interference_prep, squared_mean_prep
from test_arith import decode


def extract(layout: RegisterLayout, labels: np.ndarray, name: str) -> np.ndarray:
    """A register's field of each basis label, by bit arithmetic."""
    return (labels >> layout.offset(name)) & ((1 << layout.width(name)) - 1)


class TestRegisterLayout:
    def test_first_register_is_least_significant(self):
        lay = RegisterLayout([("a", 2), ("b", 3)])
        assert lay.offset("a") == 0
        assert lay.offset("b") == 2
        assert lay.n_qubits == 5
        assert lay.dim == 32

    def test_extract_and_replace_roundtrip(self):
        lay = RegisterLayout([("a", 2), ("b", 3)])
        label = (5 << 2) | 3  # b=5, a=3
        assert lay.field("a")[label] == 3
        assert lay.field("b")[label] == 5
        rebuilt = sum(int(lay.field(n)[label]) << lay.offset(n) for n in lay.names)
        assert rebuilt == label

    def test_extract_vectorized(self):
        lay = RegisterLayout([("a", 1), ("b", 1)])
        assert lay.field("b").tolist() == [0, 0, 1, 1]

    def test_duplicate_names_rejected(self):
        with pytest.raises(LayoutError):
            RegisterLayout([("a", 1), ("a", 2)])

    def test_zero_width_rejected(self):
        with pytest.raises(LayoutError):
            RegisterLayout([("a", 0)])

    def test_qubit_cap(self):
        # A layout holds no amplitudes, so the real cap of 26 is cheap to reach.
        with pytest.raises(LayoutError, match=r"^layout needs 27 qubits, exceeding the cap of 26$"):
            RegisterLayout([("a", 27)])
        with pytest.raises(LayoutError, match="needs 27 qubits"):
            RegisterLayout([("a", 20), ("b", 7)])
        assert RegisterLayout([("a", 26)]).n_qubits == 26

    def test_unknown_register(self):
        lay = RegisterLayout([("a", 1)])
        with pytest.raises(UnknownRegisterError):
            lay.width("zz")

    def test_field_matches_extract(self):
        lay = RegisterLayout([("a", 2), ("b", 1), ("c", 3)])
        labels = np.arange(lay.dim)
        for name in lay.names:
            np.testing.assert_array_equal(lay.field(name), extract(lay, labels, name))
        joint = extract(lay, labels, "c") | (extract(lay, labels, "a") << 3)
        np.testing.assert_array_equal(lay.field("c", "a"), joint)
        large = RegisterLayout([("a", 6), ("b", 7)])  # 8192 labels
        np.testing.assert_array_equal(large.field("b"), extract(large, np.arange(large.dim), "b"))
        with pytest.raises(UnknownRegisterError):
            lay.field("zz")


class TestHadamard:
    def test_equals_kronecker_product_of_single_qubit_h(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        lay = RegisterLayout([("a", 1), ("b", 3), ("c", 1)])
        mat = operation_matrix([HadamardBlock("b")], lay)
        want = np.kron(np.eye(2), np.kron(h, np.kron(h, np.kron(h, np.eye(2)))))
        np.testing.assert_allclose(mat, want, rtol=0, atol=1e-15)

    def test_register_wider_than_one_slice(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        lay = RegisterLayout([("a", 1), ("b", 6), ("c", 1)])
        mat = operation_matrix([HadamardBlock("b")], lay)
        want = np.ones((1, 1))
        for _ in range(6):
            want = np.kron(h, want)
        want = np.kron(np.eye(2), np.kron(want, np.eye(2)))
        np.testing.assert_allclose(mat, want, rtol=0, atol=1e-15)

    def test_wide_register_matches_per_qubit_form(self):
        lay = RegisterLayout([("a", 1), ("b", 16), ("c", 1)])
        rng = np.random.default_rng(3)
        amps = rng.normal(size=lay.dim)
        amps /= np.linalg.norm(amps)
        want = amps
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for k in range(16):
            lo = 1 << (lay.offset("b") + k)
            want = np.einsum("ab,hbl->hal", h, want.reshape(-1, 2, lo)).reshape(-1)
        state = HadamardBlock("b").apply(StateVector(lay, amps))
        np.testing.assert_allclose(state.amps, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("width", range(1, 7))
    def test_stack_at_offset_zero_equals_kronecker_and_each_row(self, width):
        # A slice at offset 0 is one GEMM over the whole stack; from width 5 on
        # a second slice sits above it and takes the batched matmul.
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        walsh = np.ones((1, 1))
        for _ in range(width):
            walsh = np.kron(h, walsh)
        lay = RegisterLayout([("a", width), ("b", 1)])
        want = np.kron(np.eye(2), walsh)
        rng = np.random.default_rng(width)
        for k in range(1, 9):
            for shape in ((k, lay.dim), (k, lay.dim, lay.dim)):
                amps = rng.normal(size=shape)
                amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
                got = HadamardBlock("a").apply(StateVector(lay, amps.copy())).amps
                np.testing.assert_allclose(got, amps @ want.T, rtol=0, atol=1e-15)
                for out, row in zip(got, amps):
                    alone = HadamardBlock("a").apply(StateVector(lay, row.copy())).amps
                    np.testing.assert_array_equal(out, alone)

    def test_uniform_superposition(self):
        state = new_state(RegisterLayout([("a", 3)]))
        HadamardBlock("a").apply(state)
        np.testing.assert_allclose(np.abs(state.amps) ** 2, np.full(8, 1 / 8), atol=1e-15)

    def test_involution(self):
        lay = RegisterLayout([("a", 2), ("b", 1)])
        rng = np.random.default_rng(0)
        amps = rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = StateVector(lay, amps.copy())
        HadamardBlock("a").apply(state)
        HadamardBlock("a").apply(state)
        np.testing.assert_allclose(state.amps, amps, atol=1e-12)


class TestQft:
    def test_readout_equals_dft_matrix_marginal(self):
        # The readout against the inverse QFT written out as a complex matrix,
        # applied along each register of random real states in turn.
        lay = RegisterLayout([("a", 1), ("b", 4), ("c", 2)])
        rng = np.random.default_rng(1)
        for _ in range(5):
            amps = rng.normal(size=lay.dim)
            amps /= np.linalg.norm(amps)
            state = StateVector(lay, amps.copy())
            cube = amps.reshape(4, 16, 2)  # axes c, b, a
            for name, axis in (("a", 2), ("b", 1), ("c", 0)):
                n = cube.shape[axis]
                y = np.arange(n)
                dft = np.exp(-2j * np.pi * np.outer(y, y) / n) / np.sqrt(n)
                out = np.moveaxis(np.tensordot(dft, cube, axes=([1], [axis])), 0, axis)
                others = tuple(k for k in range(3) if k != axis)
                want = (np.abs(out) ** 2).sum(axis=others)
                np.testing.assert_allclose(Qft(name).apply(state), want, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(state.amps, amps)

    def test_readout_checks_the_norm(self):
        lay = RegisterLayout([("a", 2), ("b", 2)])
        amps = np.full(16, 0.25)
        assert Qft("b").apply(StateVector(lay, amps)).sum() == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(SimulationError, match="drifted"):
            Qft("b").apply(StateVector(lay, 1.01 * amps))

    def test_stacked_readout_checks_every_row(self):
        rows = np.full((3, 4, 4), 0.25)
        np.testing.assert_allclose(readout_rows(rows, "y").sum(axis=1), 1.0, rtol=0, atol=1e-15)
        rows[2] *= 1.01
        with pytest.raises(SimulationError, match="readout of 'y' drifted"):
            readout_rows(rows, "y")

    @pytest.mark.parametrize("seed", range(24))
    def test_readout_rows_equals_its_frozen_copy(self, seed):
        # Random real stacks of 1-5 rows, N = 2..1024 and 1-8 columns beside
        # the register: bit for bit the full-length readout it was written as.
        def frozen(amps):
            n = amps.shape[1]
            parts = np.fft.rfft(amps, axis=1).view(np.float64)
            half = np.einsum("kyl,kyl->ky", parts, parts) / n
            return np.concatenate([half, half[:, n - half.shape[1] : 0 : -1]], axis=1)

        rng = np.random.default_rng(seed)
        k, n, rest = int(rng.integers(1, 6)), 2 << seed % 10, 1 << int(rng.integers(0, 4))
        amps = rng.normal(size=(k, n, rest))
        amps /= np.sqrt(np.einsum("kyl,kyl->k", amps, amps))[:, None, None]
        np.testing.assert_array_equal(readout_rows(amps, "y"), frozen(amps))

    def test_acts_only_on_named_register(self):
        lay = RegisterLayout([("a", 1), ("b", 2)])
        state = new_state(lay)
        HadamardBlock("a").apply(state)
        # b holds |0>, which the inverse QFT spreads evenly; a's superposition
        # does not enter b's readout.
        np.testing.assert_allclose(Qft("b").apply(state), np.full(4, 0.25), rtol=0, atol=1e-15)
        assert Qft("a").apply(state)[0] == pytest.approx(1.0, abs=1e-15)


class TestValueKeyedRotation:
    def test_amplitude_placement(self):
        lay = RegisterLayout([("k", 1), ("t", 1)])
        state = new_state(lay)
        HadamardBlock("k").apply(state)
        rot = ValueKeyedRotation(["k"], "t", np.array([0.6, -0.8]))
        rot.apply(state)
        # |k=0>: 0.6|0> + 0.8|1>; |k=1>: -0.8|0> + 0.6|1>, each weighted 1/sqrt(2)
        np.testing.assert_allclose(
            state.amps.real, np.array([0.6, -0.8, 0.8, 0.6]) / np.sqrt(2), atol=1e-14
        )

    def test_self_inverse(self):
        lay = RegisterLayout([("k", 2), ("t", 1)])
        rot = ValueKeyedRotation(["k"], "t", np.array([0.1, -0.5, 1.0, 0.0]))
        rng = np.random.default_rng(3)
        amps = rng.normal(size=8) + 0j
        amps /= np.linalg.norm(amps)
        state = StateVector(lay, amps.copy())
        rot.apply(state)
        rot.apply(state)
        np.testing.assert_allclose(state.amps, amps, atol=1e-12)

    def test_value_out_of_range_rejected(self):
        with pytest.raises(SimulationError):
            ValueKeyedRotation(["k"], "t", np.array([1.5, 0.0]))

    def test_table_rows_pair_with_the_stack_rows(self):
        # Row r of a (3, 2) table keys state r of a (3, dim) stack. A stack of
        # 6 (or one state) must not be paired with the rows by reshaping.
        lay = RegisterLayout([("k", 1), ("t", 1)])
        table = np.array([[0.6, -0.8], [0.0, 1.0], [-0.28, 0.96]])
        rot = ValueKeyedRotation(["k"], "t", table)
        stack = new_state(lay, 3)
        HadamardBlock("k").apply(stack)
        rot.apply(stack)
        for row, values in zip(stack.amps, table):
            single = new_state(lay)
            HadamardBlock("k").apply(single)
            ValueKeyedRotation(["k"], "t", values).apply(single)
            np.testing.assert_array_equal(row, single.amps)
        for state in (new_state(lay, 6), new_state(lay), new_state(lay, 1)):
            with pytest.raises(SimulationError, match="3 rows"):
                rot.apply(state)

    @pytest.mark.parametrize("registers", [[("k", 2), ("t", 1)], [("t", 1), ("k", 2)]])
    def test_a_table_of_the_wrong_width_is_refused(self, registers):
        # k has 4 labels, below the target (as in every pipeline rotation) or
        # above it. Neither a short table nor a long one is read in part.
        state = new_state(RegisterLayout(registers))
        for n in (2, 8):
            with pytest.raises(SimulationError, match=f"{n} values cannot key the 4 labels"):
                ValueKeyedRotation(["k"], "t", np.full(n, 0.5)).apply(state)

    def test_equals_oracle_rotation_uncompute_sandwich(self):
        # The digital sequence the rotation stands for, simulated label by
        # label: an oracle XOR-writes the fixed-point word of x[idx] into w, a
        # rotation keyed on w turns by decode(w) / C, and the oracle runs
        # again. It must equal one index-keyed rotation by quantize(x) / C and
        # leave w back at 0.
        fmt = FixedPointFormat(int_bits=2, frac_bits=3)  # 1 + 2 + 3 bits
        x = np.array([1.23, -2.71, 0.06, 3.3])
        assert not np.array_equal([fmt.quantize(v) for v in x], x)
        c = 4.0  # |decode(w)| <= 4 for every word, so every table value is <= 1
        lay = RegisterLayout([("idx", 2), ("w", fmt.word_bits), ("anc", 1)])
        words = np.array([fmt.encode(v) for v in x])
        # The oracle as a label permutation; XOR makes it its own inverse.
        oracle = np.arange(lay.dim) ^ (words[lay.field("idx")] << lay.offset("w"))
        by_word = np.array([decode(fmt, w) for w in range(1 << fmt.word_bits)]) / c

        state = new_state(lay)
        HadamardBlock("idx").apply(state)
        state.amps = state.amps[oracle]
        ValueKeyedRotation(["w"], "anc", by_word).apply(state)
        state.amps = state.amps[oracle]

        expected = new_state(lay)
        HadamardBlock("idx").apply(expected)
        by_index = np.array([fmt.quantize(v) for v in x]) / c
        ValueKeyedRotation(["idx"], "anc", by_index).apply(expected)
        np.testing.assert_allclose(state.amps, expected.amps, rtol=0, atol=1e-12)
        assert marginal_probs(state, "w")[0] == pytest.approx(1.0, abs=1e-12)


class TestControlled:
    def test_applies_only_on_control_value(self):
        lay = RegisterLayout([("c", 1), ("k", 1), ("t", 1)])
        state = new_state(lay)
        HadamardBlock("c").apply(state)
        inner = ValueKeyedRotation(["k"], "t", np.array([0.0, 0.0]))  # |0> -> |1>
        Controlled("c", 1, inner).apply(state)
        # c=0 branch untouched (t=0), c=1 branch has t flipped to 1
        p_t1_given_c0 = np.abs(state.amps[0b000]) ** 2
        assert p_t1_given_c0 == pytest.approx(0.5)
        assert np.abs(state.amps[0b101]) ** 2 == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "registers",
        [
            [("c", 1), ("k", 2), ("t", 1)],  # 1-qubit control at offset 0
            [("k", 2), ("c", 1), ("t", 1)],  # ... between the inner's registers
            [("k", 2), ("t", 1), ("c", 1)],  # ... on top
            [("c", 2), ("k", 2), ("t", 1)],  # 2-qubit control at offset 0
            [("k", 2), ("c", 2), ("t", 1)],  # ... above: values on both sides of each
        ],
    )
    def test_equals_the_masked_dense_form(self, registers):
        lay = RegisterLayout(registers)
        inners = [HadamardBlock("k"), ValueKeyedRotation(["k"], "t", np.array([0.3, -0.9, 0.1, 1.0]))]
        for inner in inners:
            dense = operation_matrix([inner], lay)
            for value in range(1 << lay.width("c")):
                on = lay.field("c") == value
                want = np.where(on[:, None], dense, np.eye(lay.dim))
                got = operation_matrix([Controlled("c", value, inner)], lay)
                np.testing.assert_array_equal(got, want)
        # A (3, 4) table on a 3-row stack: block r is row r's masked dense form.
        table = np.array([[0.3, -0.9, 0.1, 1.0], [-0.2, 0.5, 0.0, -1.0], [0.7, 0.7, -0.6, 0.4]])
        stacked = ValueKeyedRotation(["k"], "t", table)
        for value in range(1 << lay.width("c")):
            on = lay.field("c") == value
            got = operation_matrix([Controlled("c", value, stacked)], lay, rows=3)
            for r, row in enumerate(table):
                dense = operation_matrix([ValueKeyedRotation(["k"], "t", row)], lay)
                np.testing.assert_array_equal(got[r], np.where(on[:, None], dense, np.eye(lay.dim)))
        # A nested Controlled acts where both controls hold their values.
        wide = RegisterLayout([*registers, ("e", 1)])
        dense = operation_matrix([inners[1]], wide)
        for value in range(1 << wide.width("c")):
            on = (wide.field("c") == value) & (wide.field("e") == 1)
            got = operation_matrix([Controlled("c", value, Controlled("e", 1, inners[1]))], wide)
            np.testing.assert_array_equal(got, np.where(on[:, None], dense, np.eye(wide.dim)))

    def test_an_inner_kernel_that_breaks_the_norm_is_refused(self):
        lay = RegisterLayout([("c", 1), ("k", 1), ("t", 1)])
        state = new_state(lay, rows=2)
        HadamardBlock("c").apply(state)
        with pytest.raises(SimulationError, match="norm drifted"):
            Controlled("c", 1, _Scale("k", 1.01)).apply(state)

    def test_control_value_out_of_range_rejected(self):
        lay = RegisterLayout([("c", 1), ("t", 1)])
        with pytest.raises(SimulationError, match="out of"):
            Controlled("c", 2, HadamardBlock("t")).apply(new_state(lay))

    def test_control_overlap_rejected(self):
        inner = ValueKeyedRotation(["c"], "t", np.array([1.0, 1.0]))
        lay = RegisterLayout([("c", 1), ("t", 1)])
        with pytest.raises(SimulationError):
            Controlled("c", 0, inner).apply(new_state(lay))


class TestReflections:
    def test_reflect_about_zero_subset(self):
        lay = RegisterLayout([("a", 1), ("b", 1)])
        amps = np.full(4, 0.5)
        state = StateVector(lay, amps)
        ReflectAboutZero(["a"]).apply(state)
        np.testing.assert_allclose(state.amps, [-0.5, 0.5, -0.5, 0.5])

    def test_reflect_where(self):
        lay = RegisterLayout([("a", 2)])
        state = StateVector(lay, np.full(4, 0.5))
        ReflectWhere("a", lambda v: v % 2 == 1).apply(state)
        np.testing.assert_allclose(state.amps, [0.5, -0.5, 0.5, -0.5])

    def test_unknown_register_is_refused_by_both_reflections(self):
        lay = RegisterLayout([("a", 1), ("b", 1)])
        for op in (ReflectWhere("zz", lambda v: v == 0), ReflectAboutZero(["a", "zz"])):
            with pytest.raises(UnknownRegisterError):
                op.apply(new_state(lay))


class TestMeasurement:
    def test_marginal_probs(self):
        lay = RegisterLayout([("a", 1), ("b", 1)])
        state = StateVector(lay, np.array([0.6, 0.0, 0.0, 0.8]))
        np.testing.assert_allclose(marginal_probs(state, "b"), [0.36, 0.64])

    def test_marginal_probs_of_a_stack_are_per_state(self):
        lay = RegisterLayout([("a", 1), ("b", 1)])
        np.testing.assert_array_equal(marginal_probs(new_state(lay, 2), "a"), [[1, 0], [1, 0]])
        amps = np.array([[0.6, 0.0, 0.0, 0.8], [0.0, 0.0, 1.0, 0.0]])
        np.testing.assert_allclose(
            marginal_probs(StateVector(lay, amps), "b"), [[0.36, 0.64], [0.0, 1.0]]
        )

    def test_measure_refuses_a_stack(self):
        state = new_state(RegisterLayout([("a", 1), ("b", 1)]), 2)
        with pytest.raises(SimulationError, match="not a stack"):
            measure(state, "a", 0)

    def test_reductions_equal_abs_squared_forms(self):
        lay = RegisterLayout([("a", 2), ("b", 3), ("c", 1)])
        rng = np.random.default_rng(9)
        amps = rng.normal(size=lay.dim)
        amps /= np.linalg.norm(amps)
        state = StateVector(lay, amps)
        probs = (np.abs(amps) ** 2).reshape(2, 8, 4)
        assert state.norm_sq() == pytest.approx(np.sum(np.abs(amps) ** 2), rel=0, abs=1e-15)
        for name, axis in (("a", 2), ("b", 1), ("c", 0)):
            others = tuple(k for k in range(3) if k != axis)
            np.testing.assert_allclose(
                marginal_probs(state, name), probs.sum(axis=others), rtol=0, atol=1e-15
            )

    def test_measure_deterministic_under_seed(self):
        lay = RegisterLayout([("a", 2)])
        amps = np.array([0.5, 0.5, 0.5, 0.5])
        outcomes = set()
        for _ in range(3):
            state = StateVector(lay, amps.copy())
            outcome, collapsed = measure(state, "a", np.random.default_rng(42))
            outcomes.add(outcome)
            assert collapsed.amps[outcome] == pytest.approx(1.0)
        assert len(outcomes) == 1

    def test_draw_from_marginal_matches_measure(self):
        lay = RegisterLayout([("a", 2), ("b", 1)])
        rng = np.random.default_rng(5)
        amps = rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        for seed in range(20):
            state = StateVector(lay, amps.copy())
            drawn = draw(marginal_probs(state, "a")[None], [seed])[0]
            assert drawn == measure(state, "a", seed)[0]


class TestDraw:
    @staticmethod
    def _distributions(count: int, n: int) -> np.ndarray:
        """Unnormalised distributions with zero entries, mass at both ends and
        nearly one-hot rows."""
        rng = np.random.default_rng(n)
        probs = rng.random((count, n)) ** 4
        probs[rng.random((count, n)) < 0.4] = 0.0
        probs[0::3, 1:-1] *= 1e-9  # mass at both ends
        probs[1::3, :] = 0.0
        probs[1::3, rng.integers(0, n, size=probs[1::3].shape[0])] = 0.7  # one-hot, scaled
        probs[:, 0] += 1e-300 * (probs.sum(axis=1) == 0.0)
        return probs

    @pytest.mark.parametrize("n", [2, 7, 64, 1024])
    def test_equals_generator_choice(self, n):
        # Seed for seed, outcomes equal those of the choice call they replace,
        # both drawn one row at a time and as one stack.
        probs = self._distributions(150, n)
        seeds = range(1000, 1000 + len(probs))
        want = [
            int(np.random.default_rng(s).choice(n, p=row / row.sum()))
            for row, s in zip(probs, seeds)
        ]
        assert draw(probs, seeds) == want
        assert [draw(row[None], [s])[0] for row, s in zip(probs, seeds)] == want
        assert len(set(want)) > 1

    def test_equals_generator_choice_on_cdf_plateaus(self):
        # Zero entries at the start, in the middle and at the end make the cdf
        # flat; a uniform past a flat run must land after it, as choice's does.
        rows = np.array([
            [0.0, 0.0, 0.2, 0.0, 0.0, 0.5, 0.3, 0.0, 0.0],
            [0.0, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.6, 0.0],
            [0.1, 0.0, 0.0, 0.0, 0.8, 0.0, 0.0, 0.0, 0.1],
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        ])
        probs = np.repeat(rows, 250, axis=0)
        seeds = range(len(probs))
        want = [int(np.random.default_rng(s).choice(9, p=row)) for row, s in zip(probs, seeds)]
        assert draw(probs, seeds) == want
        assert set(want) == {0, 1, 2, 4, 5, 6, 7, 8}

    def test_generator_or_seed(self):
        probs = self._distributions(4, 16)
        gens = [np.random.default_rng(s) for s in range(4)]
        assert draw(probs, gens) == draw(probs, range(4))

    def test_a_seeds_uniform_is_default_rng_random(self):
        # PCG64's next_double, read without a Generator, bit for bit.
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, *range(2, 9996)]
        assert len(seeds) == 10_000
        for seed in seeds:
            assert uniform(seed) == np.random.default_rng(seed).random()
        assert uniform(np.int64(7)) == np.random.default_rng(7).random()

    def test_a_generator_draws_its_next_uniform(self):
        gen, twin = np.random.default_rng(11), np.random.default_rng(11)
        assert [uniform(gen) for _ in range(3)] == [twin.random() for _ in range(3)]

    def test_a_count_of_seeds_other_than_the_rows_is_refused(self):
        probs = self._distributions(3, 8)
        for seeds in (range(2), range(4), []):
            with pytest.raises(SimulationError, match=f"^{len(seeds)} generators or seeds for 3 rows$"):
                draw(probs, seeds)

    @pytest.mark.parametrize("n", [2, 4, 8, 64, 1024])
    def test_draw_half_equals_draw_on_the_mirrored_rows(self, n):
        # Halves with zero entries, mass at both ends and one-hot rows: the
        # half draw is `draw` on the full rows P(y) = P(n - y), seed for seed.
        half = self._distributions(300, n // 2 + 1)
        full = np.concatenate([half, half[:, n // 2 - 1 : 0 : -1]], axis=1)
        seeds = range(77, 77 + len(half))
        got = draw_half(half, full.sum(axis=1), seeds)
        assert got == draw(full, seeds)
        assert full[np.arange(len(full)), got].min() > 0.0
        assert len(set(got)) > min(n // 2, 3)

    def test_draw_half_past_the_end_takes_the_last_possible_outcome(self):
        # A sum twice the row's puts every target 2u with u >= 1/2 past the
        # cumulative's end: it lands on the last y of non-zero probability,
        # which lies past n/2, at n/2, or at 0 when the row is one-hot there.
        # Below the end, y is the count of the (exact) cumulative's entries <= 2u.
        half = np.array([[0.5, 0.0, 0.25, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0, 0.5], [1.0, 0.0, 0.0, 0.0, 0.0]])
        u = [uniform(s) for s in range(200)]
        assert 50 < sum(v >= 0.5 for v in u) < 150
        for row, last in zip(half, (6, 4, 0)):
            cdf = np.cumsum(np.concatenate([row, row[3:0:-1]]))
            want = [last if v >= 0.5 else int(cdf.searchsorted(2.0 * v, side="right")) for v in u]
            assert draw_half(np.repeat(row[None], 200, axis=0), np.full(200, 2.0), range(200)) == want

    def test_draw_half_lands_after_a_step_the_uniform_hits(self, monkeypatch):
        # Uniforms that hit a step of the cdf exactly, 0 and the middle among
        # them, land after it on both halves, as choice's steps do: never on
        # an outcome of probability 0.
        full = np.array([0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.0, 0.25])
        monkeypatch.setattr(simcore, "uniform", lambda seed: seed / 8)
        seeds = range(8)
        want = [1, 1, 4, 4, 4, 4, 7, 7]
        assert draw_half(np.repeat(full[None, :5], 8, axis=0), np.ones(8), seeds) == want
        assert draw(np.repeat(full[None], 8, axis=0), seeds) == want

    def test_draw_half_refuses_a_count_of_seeds_other_than_the_rows(self):
        with pytest.raises(ValueError):
            draw_half(np.full((3, 3), 0.25), np.ones(3), range(2))

    @pytest.mark.parametrize(
        "bad", [[0.5, -0.1, 0.6], [0.5, np.nan, 0.5], [0.0, 0.0, 0.0], [np.inf, 0.0, 1.0]]
    )
    def test_rejects_what_choice_rejects(self, bad):
        probs = np.array([[0.2, 0.3, 0.5], bad])
        with pytest.raises(SimulationError, match="probabilities"):
            draw(probs, [1, 2])


def test_operation_matrix_unitary():
    lay = RegisterLayout([("k", 1), ("t", 1)])
    ops = [HadamardBlock("k"), ValueKeyedRotation(["k"], "t", np.array([0.3, -0.9]))]
    mat = operation_matrix(ops, lay)
    assert mat.dtype == np.float64
    np.testing.assert_allclose(mat @ mat.T, np.eye(4), atol=1e-12)


def test_operation_matrix_columns_match_single_replays():
    lay = RegisterLayout([("k", 2), ("t", 1), ("c", 1)])
    ops = [
        HadamardBlock("k"),
        HadamardBlock("c"),
        Controlled("c", 1, ValueKeyedRotation(["k"], "t", np.array([0.3, -0.9, 0.1, 1.0]))),
        ReflectWhere("t", lambda v: v == 1),
        ReflectAboutZero(["k"]),
    ]
    mat = operation_matrix(ops, lay)
    for col in range(lay.dim):
        state = StateVector(lay, np.eye(lay.dim)[col])
        for op in ops:
            op.apply(state)
        np.testing.assert_array_equal(mat[:, col], state.amps)


class _Squeeze(Operation):
    """diag(sqrt 2, 0) on one qubit. Not unitary, but its Frobenius norm is that
    of the identity, so a batch of every basis column keeps its total norm
    while weight moves from the columns with the qubit at 1 to the others."""

    def __init__(self, register: str):
        self.register = register

    def apply(self, state: StateVector) -> StateVector:
        lay = state.layout
        bit = extract(lay, np.arange(lay.dim), self.register)
        state.amps = np.where(bit == 0, np.sqrt(2.0) * state.amps, 0.0)
        return state


class _Scale(Operation):
    """Scales every amplitude: unchecked, so only an enclosing op can catch it."""

    def __init__(self, register: str, factor: float):
        self.register, self.factor = register, factor

    def kernel(self, state: StateVector) -> None:
        state.amps = state.amps * self.factor


def test_operation_matrix_checks_every_column():
    lay = RegisterLayout([("a", 1), ("b", 1)])
    squeezed = np.kron(np.eye(2), np.diag([np.sqrt(2.0), 0.0]))
    assert np.sum(np.abs(squeezed) ** 2) == pytest.approx(lay.dim)
    with pytest.raises(SimulationError, match="norm drifted"):
        operation_matrix([HadamardBlock("b"), _Squeeze("a")], lay)


def test_unit_column_check_covers_every_block():
    stack = np.stack([np.eye(4), np.eye(4)])
    check_unit_norms(stack.transpose(0, 2, 1))
    stack[1, 0, 3] = 0.5
    with pytest.raises(SimulationError, match="state 7 of 8"):
        check_unit_norms(stack.transpose(0, 2, 1))


def test_operation_matrix_blocks_equal_the_dense_diagonal():
    # Row r of a (4, 4) table keys block r of a 4-row stack, as the same
    # rotation keyed on a top register "r" keys the block of label r.
    lay = RegisterLayout([("k", 1), ("t", 1)])
    values = np.array([0.3, -0.9, 0.1, 1.0, -0.5, 0.2, 0.0, 0.7])
    wide = RegisterLayout([("k", 1), ("t", 1), ("r", 2)])
    dense = operation_matrix([HadamardBlock("k"), ValueKeyedRotation(["k", "r"], "t", values)], wide)
    rows = operation_matrix(
        [HadamardBlock("k"), ValueKeyedRotation(["k"], "t", values.reshape(4, 2))], lay, rows=4
    )
    assert rows.shape == (4, 4, 4)
    for b in range(4):
        np.testing.assert_array_equal(rows[b], dense[4 * b : 4 * b + 4, 4 * b : 4 * b + 4])


class TestNanIsRefused:
    """A NaN compares false with every tolerance, so each check must pass
    only where the deviation is <= its tolerance."""

    def test_unit_norm_check(self):
        with pytest.raises(SimulationError, match=r"\|psi\|\^2 = nan \(state 0 of 1\)"):
            check_unit_norms(np.array([np.nan, 0.0]))
        with pytest.raises(SimulationError, match=r"\|psi\|\^2 = nan \(state 1 of 2\)"):
            check_unit_norms(np.array([[1.0, 0.0], [np.nan, 0.0]]))

    def test_hadamard_checks_its_output(self):
        state = StateVector(RegisterLayout([("a", 1)]), np.array([np.nan, 0.0]))
        with pytest.raises(SimulationError, match="norm drifted"):
            HadamardBlock("a").apply(state)

    def test_readout(self):
        with pytest.raises(SimulationError, match="drifted"):
            readout_rows(np.full((1, 4, 1), np.nan), "y")

    @settings(deadline=None, max_examples=200)
    @given(st.integers(0, 4), st.integers(1, 3), st.data())
    def test_keyed_rotation_table(self, k, key_bits, data):
        # A (k, n) table, or a (n,) one for k = 0, of the values the kernel's
        # property test draws, NaN among them, with a NaN at one drawn entry:
        # refused when the rotation is built, not later as a drifted norm.
        n = 1 << key_bits
        entry = st.one_of(st.sampled_from([1.0, -1.0, 0.0, np.nan]), st.floats(-1.0, 1.0, allow_nan=False))
        table = np.array(data.draw(st.lists(entry, min_size=max(k, 1) * n, max_size=max(k, 1) * n)))
        table[data.draw(st.integers(0, table.size - 1))] = np.nan
        table = table.reshape(k, n) if k else table
        with pytest.raises(SimulationError, match="^rotation value magnitude nan is not at most 1$"):
            ValueKeyedRotation(["k"], "t", table)
        for build in (interference_prep, squared_mean_prep):
            with pytest.raises(SimulationError, match="^rotation value magnitude nan is not at most 1$"):
                build("x", table, {})


def test_an_empty_stack_passes_the_norm_check():
    check_unit_norms(np.zeros((0, 4)))


@pytest.mark.parametrize("off", [2 * NORM_TOL, -2 * NORM_TOL])
def test_a_vector_off_by_twice_the_tolerance_is_refused(off):
    bad = np.array([np.sqrt(1.0 + off), 0.0])
    stack = np.array([[1.0, 0.0], [0.0, 1.0], bad])
    for vectors, where in ((bad, "state 0 of 1"), (stack, "state 2 of 3")):
        message = f"norm drifted: |psi|^2 = {np.vdot(bad, bad)} ({where})"
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            check_unit_norms(vectors)


@pytest.mark.parametrize("entry", [0.99999999995, 1.00000000005])
def test_norms_on_the_rounded_bounds_are_refused(entry):
    # entry^2 rounds to the double nearest 1 -+ NORM_TOL, which lies just
    # outside the tolerance: refused alone and in a stack, as |sq - 1| says.
    sq = entry * entry
    assert sq in (1.0 - NORM_TOL, 1.0 + NORM_TOL) and not abs(sq - 1.0) <= NORM_TOL
    for vectors in (np.array([entry]), np.array([[1.0], [entry]])):
        with pytest.raises(SimulationError, match="norm drifted"):
            check_unit_norms(vectors)
    inside = np.nextafter(entry, 1.0)
    check_unit_norms(np.array([[1.0], [inside]]))


class TestWalshStart:
    """`walsh_start` splits off the leading Hadamard blocks and returns their
    result on |0>, from a bounded cache."""

    @staticmethod
    def _ops():
        values = np.array([0.3, -0.9, 0.1, 1.0])
        rotation = ValueKeyedRotation(["k"], "t", values)
        return [HadamardBlock("c"), HadamardBlock("k"), Controlled("c", 0, rotation), HadamardBlock("c")]

    def test_splits_off_the_leading_blocks(self):
        lay = RegisterLayout([("c", 1), ("k", 2), ("t", 1)])
        ops = self._ops()
        want = new_state(lay)
        for op in ops[:2]:
            op.apply(want)
        start, rest = walsh_start(ops, lay)
        assert rest == ops[2:]
        np.testing.assert_array_equal(start, want.amps)
        assert walsh_start(ops[2:], lay)[1] == ops[2:]  # no leading block
        np.testing.assert_array_equal(walsh_start(ops[2:], lay)[0], new_state(lay).amps)

    def test_entries_are_read_only_and_shared_by_equal_layouts(self):
        ops = self._ops()
        one = RegisterLayout([("c", 1), ("k", 2), ("t", 1)])
        two = RegisterLayout([("c", 1), ("k", 2), ("t", 1)])
        assert one is not two and one == two and hash(one) == hash(two)
        assert one != RegisterLayout([("k", 2), ("c", 1), ("t", 1)])
        start = walsh_start(ops, one)[0]
        assert walsh_start(ops, two)[0] is start
        assert not start.flags.writeable
        with pytest.raises(ValueError):
            start[0] = 1.0

    def test_starts_of_more_than_4096_entries_are_not_cached(self):
        ops = [HadamardBlock("k")]
        cached = RegisterLayout([("k", 12)])  # 4096 entries
        assert walsh_start(ops, cached)[0] is walsh_start(ops, cached)[0]
        layout = RegisterLayout([("k", 13)])
        before = _walsh_start.cache_info()
        first, second = walsh_start(ops, layout)[0], walsh_start(ops, layout)[0]
        assert first is not second and not first.flags.writeable
        np.testing.assert_array_equal(first, second)
        after = _walsh_start.cache_info()
        assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses, before.currsize)

    def test_the_blocks_norm_checks_run_when_an_entry_is_built(self, monkeypatch):
        _walsh_start.cache_clear()
        lay = RegisterLayout([("c", 1), ("k", 2), ("t", 1)])
        seen = []
        original = StateVector.check_norm

        def counting(self):
            seen.append(self.amps.shape)
            original(self)

        monkeypatch.setattr(StateVector, "check_norm", counting)
        walsh_start(self._ops(), lay)
        walsh_start(self._ops(), lay)
        assert seen == [(16,), (16,)]  # H(c) and H(k), once

    def test_an_unknown_register_is_refused(self):
        with pytest.raises(UnknownRegisterError):
            walsh_start([HadamardBlock("x")], RegisterLayout([("a", 1)]))


def test_norm_invariant_enforced():
    lay = RegisterLayout([("a", 1)])
    state = StateVector(lay, np.array([2.0, 0.0]))
    with pytest.raises(SimulationError):
        state.check_norm()


def test_amplitudes_are_real():
    lay = RegisterLayout([("a", 1)])
    assert new_state(lay).amps.dtype == np.float64
    state = StateVector(lay, np.array([0.6, 0.8], dtype=complex))
    assert state.amps.dtype == np.float64
    np.testing.assert_array_equal(state.amps, [0.6, 0.8])
    with pytest.raises(SimulationError, match="imaginary"):
        StateVector(lay, np.array([0.6, 0.8j]))
    with pytest.raises(SimulationError, match="imaginary"):
        StateVector(lay, np.array([1.0, 1e-300j]))


def test_operation_matrix_checks_once_per_self_checking_op(monkeypatch):
    # One check per op that checks itself, Controlled included (its inner
    # kernel runs unchecked); the finished matrix is checked again only when
    # the last op is a reflection or an op that does not check itself.
    lay = RegisterLayout([("k", 2), ("t", 1), ("c", 1)])
    rotation = ValueKeyedRotation(["k"], "t", np.array([0.3, -0.9, 0.1, 1.0]))
    flip = ReflectWhere("t", lambda v: v == 1)
    calls = []
    monkeypatch.setattr(simcore, "check_unit_norms", lambda vectors: calls.append(vectors.shape))
    cases = [
        ([rotation, HadamardBlock("c"), Controlled("c", 1, rotation)], 3),
        ([rotation, flip, Controlled("c", 0, rotation)], 2),
        ([rotation, Controlled("c", 1, rotation), flip], 3),
        ([rotation, ReflectAboutZero(["k"]), flip], 2),
        ([rotation, _Scale("k", 1.0)], 2),
        ([HadamardBlock("k"), HadamardBlock("c"), rotation], 3),
        ([HadamardBlock("k")], 1),
        ([], 1),
    ]
    for ops, checks in cases:
        calls.clear()
        operation_matrix(ops, lay)
        assert len(calls) == checks, ops


def test_column_checks_go_through_statevector_check_norm(monkeypatch):
    # A profiler that wraps StateVector.check_norm must see the column checks
    # of a matrix build as well: the batch has no check of its own.
    seen = []
    original = StateVector.check_norm

    def counting(self):
        seen.append(self.amps.shape)
        original(self)

    monkeypatch.setattr(StateVector, "check_norm", counting)
    operation_matrix([HadamardBlock("a"), ReflectAboutZero(["a"])], RegisterLayout([("a", 2)]))
    # The block's own check, and the finished matrix's after the trailing reflection.
    assert seen == [(4, 4), (4, 4)]
