import numpy as np
import pytest

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
    _label_field,
    marginal_probs,
    measure,
    new_state,
    operation_matrix,
    probability_of,
    sample,
)


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
        assert lay.extract(label, "a") == 3
        assert lay.extract(label, "b") == 5
        rebuilt = sum(int(lay.extract(label, n)) << lay.offset(n) for n in lay.names)
        assert rebuilt == label

    def test_extract_vectorized(self):
        lay = RegisterLayout([("a", 1), ("b", 1)])
        labels = np.arange(4)
        assert lay.extract(labels, "b").tolist() == [0, 0, 1, 1]

    def test_duplicate_names_rejected(self):
        with pytest.raises(LayoutError):
            RegisterLayout([("a", 1), ("a", 2)])

    def test_zero_width_rejected(self):
        with pytest.raises(LayoutError):
            RegisterLayout([("a", 0)])

    def test_qubit_cap(self, monkeypatch):
        monkeypatch.setenv("QADSIM_QUBIT_CAP", "3")
        with pytest.raises(LayoutError):
            RegisterLayout([("a", 4)])
        RegisterLayout([("a", 3)])

    def test_unknown_register(self):
        lay = RegisterLayout([("a", 1)])
        with pytest.raises(UnknownRegisterError):
            lay.width("zz")

    def test_extended_appends_above(self):
        lay = RegisterLayout([("a", 2)]).extended("p", 3)
        assert lay.offset("p") == 2
        assert lay.names == ("a", "p")

    def test_field_matches_extract_and_is_read_only(self):
        lay = RegisterLayout([("a", 2), ("b", 1), ("c", 3)])
        labels = np.arange(lay.dim)
        for name in lay.names:
            field = lay.field(name)
            np.testing.assert_array_equal(field, lay.extract(labels, name))
            assert not field.flags.writeable
            with pytest.raises(ValueError):
                field[0] = 1
        joint = lay.extract(labels, "c") | (lay.extract(labels, "a") << 3)
        np.testing.assert_array_equal(lay.field("c", "a"), joint)

    def test_field_is_shared_by_equal_layouts(self):
        one = RegisterLayout([("a", 2), ("b", 1)])
        two = RegisterLayout({"a": 2, "b": 1})
        assert one.field("b") is two.field("b")
        with pytest.raises(UnknownRegisterError):
            one.field("zz")

    def test_field_of_large_layout_is_not_cached(self):
        lay = RegisterLayout([("a", 6), ("b", 7)])
        before = _label_field.cache_info().currsize
        field = lay.field("b")
        np.testing.assert_array_equal(field, lay.extract(np.arange(lay.dim), "b"))
        assert not field.flags.writeable
        assert lay.field("b") is not field
        assert _label_field.cache_info().currsize == before


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
        amps = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
        amps /= np.linalg.norm(amps)
        want = amps
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for k in range(16):
            lo = 1 << (lay.offset("b") + k)
            want = np.einsum("ab,hbl->hal", h, want.reshape(-1, 2, lo)).reshape(-1)
        state = HadamardBlock("b").apply(StateVector(lay, amps))
        np.testing.assert_allclose(state.amps, want, rtol=0, atol=1e-15)

    def test_uniform_superposition(self):
        state = new_state(RegisterLayout([("a", 3)]))
        HadamardBlock("a").apply(state)
        np.testing.assert_allclose(np.abs(state.amps) ** 2, np.full(8, 1 / 8), atol=1e-15)

    def test_involution(self):
        lay = RegisterLayout([("a", 2), ("b", 1)])
        rng = np.random.default_rng(0)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = StateVector(lay, amps.copy())
        HadamardBlock("a").apply(state)
        HadamardBlock("a").apply(state)
        np.testing.assert_allclose(state.amps, amps, atol=1e-12)


class TestQft:
    def test_matrix_is_dft(self):
        lay = RegisterLayout([("a", 3)])
        mat = operation_matrix([Qft("a")], lay)
        n = 8
        want = np.array(
            [[np.exp(2j * np.pi * x * y / n) for x in range(n)] for y in range(n)]
        ) / np.sqrt(n)
        np.testing.assert_allclose(mat, want, atol=1e-12)

    def test_inverse_roundtrip(self):
        lay = RegisterLayout([("a", 2), ("b", 2)])
        rng = np.random.default_rng(1)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        state = StateVector(lay, amps.copy())
        Qft("b").apply(state)
        Qft("b", inverse=True).apply(state)
        np.testing.assert_allclose(state.amps, amps, atol=1e-12)

    def test_acts_only_on_named_register(self):
        lay = RegisterLayout([("a", 1), ("b", 2)])
        state = new_state(lay)
        Qft("b").apply(state)
        # register a stays |0>
        assert probability_of(state, "a", lambda v: v == 0) == pytest.approx(1.0)


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
        rot.dagger().apply(state)
        np.testing.assert_allclose(state.amps, amps, atol=1e-12)

    def test_value_out_of_range_rejected(self):
        with pytest.raises(SimulationError):
            ValueKeyedRotation(["k"], "t", np.array([1.5, 0.0]))

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
        by_word = np.array([fmt.decode(w) for w in range(1 << fmt.word_bits)]) / c

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

    def test_control_overlap_rejected(self):
        inner = ValueKeyedRotation(["c"], "t", np.array([1.0, 1.0]))
        lay = RegisterLayout([("c", 1), ("t", 1)])
        with pytest.raises(SimulationError):
            Controlled("c", 0, inner).apply(new_state(lay))


class TestReflections:
    def test_reflect_about_zero_subset(self):
        lay = RegisterLayout([("a", 1), ("b", 1)])
        amps = np.full(4, 0.5, dtype=complex)
        state = StateVector(lay, amps)
        ReflectAboutZero(["a"]).apply(state)
        np.testing.assert_allclose(state.amps, [-0.5, 0.5, -0.5, 0.5])

    def test_reflect_where(self):
        lay = RegisterLayout([("a", 2)])
        state = StateVector(lay, np.full(4, 0.5, dtype=complex))
        ReflectWhere("a", lambda v: v % 2 == 1).apply(state)
        np.testing.assert_allclose(state.amps, [0.5, -0.5, 0.5, -0.5])


class TestMeasurement:
    def test_marginal_probs(self):
        lay = RegisterLayout([("a", 1), ("b", 1)])
        state = StateVector(lay, np.array([0.6, 0.0, 0.0, 0.8], dtype=complex))
        np.testing.assert_allclose(marginal_probs(state, "b"), [0.36, 0.64])

    def test_reductions_equal_abs_squared_forms(self):
        lay = RegisterLayout([("a", 2), ("b", 3), ("c", 1)])
        rng = np.random.default_rng(9)
        amps = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
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
        amps = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        outcomes = set()
        for _ in range(3):
            state = StateVector(lay, amps.copy())
            outcome, collapsed = measure(state, "a", np.random.default_rng(42))
            outcomes.add(outcome)
            assert collapsed.amps[outcome] == pytest.approx(1.0)
        assert len(outcomes) == 1

    def test_sample_draws_like_measure_without_collapse(self):
        lay = RegisterLayout([("a", 2), ("b", 1)])
        rng = np.random.default_rng(5)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        for seed in range(20):
            state = StateVector(lay, amps.copy())
            drawn = sample(state, "a", seed)
            np.testing.assert_array_equal(state.amps, amps)
            assert drawn == measure(state, "a", seed)[0]


def test_operation_matrix_unitary():
    lay = RegisterLayout([("k", 1), ("t", 1)])
    ops = [HadamardBlock("k"), ValueKeyedRotation(["k"], "t", np.array([0.3, -0.9]))]
    mat = operation_matrix(ops, lay)
    np.testing.assert_allclose(mat @ mat.conj().T, np.eye(4), atol=1e-12)


def test_operation_matrix_columns_match_single_replays():
    lay = RegisterLayout([("k", 2), ("t", 1), ("c", 1)])
    ops = [
        HadamardBlock("k"),
        HadamardBlock("c"),
        Controlled("c", 1, ValueKeyedRotation(["k"], "t", np.array([0.3, -0.9, 0.1, 1.0]))),
        Qft("k", inverse=True),
        ReflectWhere("t", lambda v: v == 1),
        ReflectAboutZero(["k"]),
    ]
    mat = operation_matrix(ops, lay)
    for col in range(lay.dim):
        state = StateVector(lay, np.eye(lay.dim, dtype=complex)[col])
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
        bit = lay.extract(np.arange(lay.dim), self.register)
        state.amps = np.where(bit == 0, np.sqrt(2.0) * state.amps, 0.0)
        return state


def test_operation_matrix_checks_every_column():
    lay = RegisterLayout([("a", 1), ("b", 1)])
    squeezed = np.kron(np.eye(2), np.diag([np.sqrt(2.0), 0.0]))
    assert np.sum(np.abs(squeezed) ** 2) == pytest.approx(lay.dim)
    with pytest.raises(SimulationError, match="column"):
        operation_matrix([HadamardBlock("b"), _Squeeze("a")], lay)


def test_norm_invariant_enforced():
    lay = RegisterLayout([("a", 1)])
    state = StateVector(lay, np.array([2.0, 0.0], dtype=complex))
    with pytest.raises(SimulationError):
        state.check_norm()
