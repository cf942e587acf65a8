"""Property tests: every operation that A and Q are built from is a real
orthogonal map. On a (k, dim) stack of states each op acts on every state
exactly as on that state alone, a stacked preparation's Q is the Q of each
row alone, block by block, and the norm check holds each state to unit norm
on its own.

Layouts, register order, widths (1 to 6 qubits), rotation values, control
values and reflection predicates are drawn at random. The keyed rotation's
one-pass kernel is held bit for bit to its two-line form, the cached
reflection diagonals to a label-by-label evaluation, a replay that starts
from the cached Hadamard prefix to the op-by-op replay, Q's dense matrix to
the product of A's matrix and the reflections' sign flips, and the
fixed-point `quantize` to decode(encode(x)).
"""
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_arith import decode  # noqa: E402

from qadsim import pipelines  # noqa: E402
from qadsim.ae import GroverOperator, StatePreparation, label_is_zero  # noqa: E402
from qadsim.arith import FixedPointFormat, RangeError  # noqa: E402
from qadsim.pipelines import (  # noqa: E402
    EstimatorRun,
    Part,
    PipelineConfig,
    interference_prep,
    squared_mean_prep,
)
from qadsim.simcore import (  # noqa: E402
    Controlled,
    HadamardBlock,
    ReflectAboutZero,
    ReflectWhere,
    RegisterLayout,
    SimulationError,
    StateVector,
    ValueKeyedRotation,
    _flip_table,
    new_state,
    operation_matrix,
    walsh_start,
)

TOL = 1e-12
unit_values = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def layouts(draw) -> RegisterLayout:
    """Key register k (1-6 qubits), one-qubit target t, control c (1-2
    qubits), stacked in a random order."""
    widths = {"k": draw(st.integers(1, 6)), "t": 1, "c": draw(st.integers(1, 2))}
    order = draw(st.permutations(sorted(widths)))
    return RegisterLayout([(name, widths[name]) for name in order])


@st.composite
def rotations(draw, layout: RegisterLayout) -> ValueKeyedRotation:
    keys = draw(st.sampled_from([["k"], ["k", "c"], ["c", "k"]]))
    size = 1 << sum(layout.width(name) for name in keys)
    values = draw(st.lists(unit_values, min_size=size, max_size=size))
    return ValueKeyedRotation(keys, "t", np.array(values))


@st.composite
def ops(draw):
    layout = draw(layouts())
    kind = draw(st.sampled_from(
        ["hadamard", "rotation", "controlled-rotation", "controlled-hadamard",
         "reflect-zero", "reflect-where"]
    ))
    control = draw(st.integers(0, (1 << layout.width("c")) - 1))
    if kind == "hadamard":
        op = HadamardBlock(draw(st.sampled_from(layout.names)))
    elif kind == "rotation":
        op = draw(rotations(layout))
    elif kind == "controlled-rotation":
        values = draw(st.lists(unit_values, min_size=1 << layout.width("k"),
                               max_size=1 << layout.width("k")))
        op = Controlled("c", control, ValueKeyedRotation(["k"], "t", np.array(values)))
    elif kind == "controlled-hadamard":
        op = Controlled("c", control, HadamardBlock(draw(st.sampled_from(["k", "t"]))))
    elif kind == "reflect-zero":
        op = ReflectAboutZero(draw(st.lists(st.sampled_from(layout.names), min_size=1,
                                            unique=True)))
    else:
        register = draw(st.sampled_from(layout.names))
        hits = frozenset(draw(st.lists(st.integers(0, (1 << layout.width(register)) - 1))))
        op = ReflectWhere(register, lambda label: label in hits)
    return layout, op


@settings(deadline=None, max_examples=60)
@given(ops())
def test_op_is_real_orthogonal(case):
    layout, op = case
    mat = operation_matrix([op], layout)
    assert mat.dtype == np.float64
    np.testing.assert_allclose(mat @ mat.T, np.eye(layout.dim), rtol=0, atol=TOL)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 5).flatmap(
    lambda bits: st.lists(st.floats(-0.99, 0.99), min_size=1 << bits, max_size=1 << bits)
), st.booleans())
def test_grover_matrix_is_real_orthogonal(values, squared):
    build = squared_mean_prep if squared else interference_prep
    q = GroverOperator(build("prop", np.array(values), {})).matrix()
    assert q.dtype == np.float64
    np.testing.assert_allclose(q @ q.T, np.eye(q.shape[0]), rtol=0, atol=TOL)


@st.composite
def stacks(draw):
    """A (k, dim) stack of random real unit states, k in 1..8, on a random
    layout, and an op from every kind A and Q are built from. The rotation
    (alone or controlled) keys on a (k, n) table, one row per state."""
    layout = draw(layouts())
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=(k, layout.dim))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    n = 1 << layout.width("k")
    table = rng.uniform(-1.0, 1.0, size=(k, n))
    control = draw(st.integers(0, (1 << layout.width("c")) - 1))
    kind = draw(st.sampled_from(
        ["hadamard", "rotation", "controlled-rotation", "controlled-hadamard",
         "reflect-zero", "reflect-where"]
    ))
    if kind == "hadamard":
        register = draw(st.sampled_from(layout.names))
        ops = [HadamardBlock(register)] * (k + 1)
    elif kind == "controlled-hadamard":
        register = draw(st.sampled_from(["k", "t"]))
        ops = [Controlled("c", control, HadamardBlock(register))] * (k + 1)
    elif kind in ("rotation", "controlled-rotation"):
        ops = [ValueKeyedRotation(["k"], "t", values) for values in (table, *table)]
        if kind == "controlled-rotation":
            ops = [Controlled("c", control, op) for op in ops]
    elif kind == "reflect-zero":
        registers = draw(st.lists(st.sampled_from(layout.names), min_size=1, unique=True))
        ops = [ReflectAboutZero(registers)] * (k + 1)
    else:
        register = draw(st.sampled_from(layout.names))
        hits = frozenset(draw(st.lists(st.integers(0, (1 << layout.width(register)) - 1))))
        ops = [ReflectWhere(register, lambda label: label in hits)] * (k + 1)
    return layout, amps, ops[0], ops[1:]


@settings(deadline=None, max_examples=300)
@given(stacks())
def test_op_on_a_stack_equals_the_op_on_each_row(case):
    layout, amps, stacked_op, row_ops = case
    stack = stacked_op.apply(StateVector(layout, amps.copy()))
    assert stack.amps.shape == amps.shape
    for got, row, op in zip(stack.amps, amps, row_ops):
        np.testing.assert_array_equal(got, op.apply(StateVector(layout, row.copy())).amps)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 8), st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
def test_grover_matrix_on_a_stack_equals_each_row(k, bits, squared, seed):
    build = squared_mean_prep if squared else interference_prep
    table = np.random.default_rng(seed).uniform(-0.99, 0.99, size=(k, 1 << bits))
    stacked = build("stack", table, {})
    # A one-row stack gives one (dim, dim) matrix, not a stack of one.
    blocks = GroverOperator(stacked).matrix().reshape(k, stacked.layout.dim, -1)
    for block, values in zip(blocks, table):
        np.testing.assert_array_equal(block, GroverOperator(build("row", values, {})).matrix())


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 8), st.integers(1, 5), st.floats(1e-8, 0.99), st.integers(0, 2**32 - 1))
def test_check_norm_catches_weight_moved_between_rows(k, bits, moved, seed):
    layout = RegisterLayout([("a", bits)])
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(k, layout.dim))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    StateVector(layout, amps).check_norm()
    src, dst = rng.choice(k, size=2, replace=False)
    amps[src] *= np.sqrt(1.0 - moved)
    amps[dst] *= np.sqrt(1.0 + moved)
    assert np.sum(amps * amps) == pytest.approx(k, abs=1e-9)
    with pytest.raises(SimulationError, match="norm drifted"):
        StateVector(layout, amps).check_norm()


# NaN draws are refused when the rotation is built (test_simcore.py,
# TestNanIsRefused::test_keyed_rotation_table), so the kernel sees none.
rotation_values = st.one_of(st.sampled_from([1.0, -1.0, 0.0]), unit_values)


@st.composite
def keyed_stacks(draw):
    """A (k, C, dim) amplitude stack, C states per table row, a (k, n) table
    and its key registers, on one of two layouts: a key register k above the
    target t, with 0-2 qubits below t; or the layout of every pipeline
    rotation, the key every register below t (k, or k and then j), t above
    them, and 0-1 qubits above t. A third keys on j and then k, the registers
    below t out of order."""
    k, c = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    key_bits = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["key-above", "key-below", "key-below-reordered"]))
    if shape == "key-above":
        low_bits = draw(st.integers(0, 2))
        registers = [("low", low_bits)] * (low_bits > 0) + [("t", 1), ("k", key_bits)]
        keys = ["k"]
    else:
        j_bits, high_bits = draw(st.integers(0, 2)), draw(st.integers(0, 1))
        below = [("k", key_bits)] + [("j", j_bits)] * (j_bits > 0)
        registers = below + [("t", 1)] + [("high", high_bits)] * (high_bits > 0)
        keys = [name for name, _ in below]
        if shape == "key-below-reordered":
            keys.reverse()
    layout = RegisterLayout(registers)
    n = 1 << sum(layout.width(name) for name in keys)
    table = np.array(draw(st.lists(rotation_values, min_size=k * n, max_size=k * n))).reshape(k, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=(k, c, layout.dim))
    return layout, keys, table, amps


@settings(deadline=None, max_examples=300)
@given(keyed_stacks())
def test_keyed_rotation_kernel_equals_the_two_line_form(case):
    layout, keys, table, amps = case
    labels = np.arange(layout.dim)
    key, shift = np.zeros_like(labels), 0  # each label's key, by bit arithmetic
    for name in keys:
        key |= ((labels >> layout.offset(name)) & ((1 << layout.width(name)) - 1)) << shift
        shift += layout.width(name)
    bit = 1 << layout.offset("t")
    v = np.clip(table, -1.0, 1.0)[:, None, key]
    s = np.sqrt(np.clip(1.0 - v * v, 0.0, None))
    a, partner = amps, amps[..., labels ^ bit]
    want = np.where(labels & bit == 0,
                    v * a + s * partner,   # target 0: v a_0 + s a_1
                    s * partner - v * a)   # target 1: s a_0 - v a_1
    with mock.patch.object(StateVector, "check_norm", lambda self: None):  # the kernel alone
        got = ValueKeyedRotation(keys, "t", table).apply(StateVector(layout, amps.copy()))
    np.testing.assert_array_equal(got.amps, want)


@st.composite
def quantize_cases(draw):
    """A format (the widest word, or 0-8 integer and 0-16 fraction bits) and
    a value: any finite float, a tie x 2^f = n + 1/2, a word at either end of
    the range or one past it, a signed zero, a subnormal, or NaN or +-inf."""
    fmt = draw(st.one_of(st.just(FixedPointFormat(47, 16)),
                         st.builds(FixedPointFormat, st.integers(0, 8), st.integers(0, 16))))
    bound, step = 1 << (fmt.int_bits + fmt.frac_bits), 2.0**-fmt.frac_bits
    value = draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-bound - 2, bound + 1).map(lambda n: (n + 0.5) * step),
        st.sampled_from([-bound - 1, -bound, bound - 1, bound]).map(lambda n: n * step),
        st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, float("nan"), float("inf"), float("-inf")]),
    ))
    return fmt, value


def _held(fn, value) -> str:
    """fn(value) bit for bit (the sign of a zero too), or the RangeError it raises."""
    try:
        return fn(value).hex()
    except RangeError as exc:
        return f"RangeError: {exc}"


@settings(deadline=None, max_examples=400)
@given(quantize_cases())
@example((FixedPointFormat(2, 3), 0.0625))   # a tie rounded down to the even word 0
@example((FixedPointFormat(2, 3), 0.1875))   # a tie rounded up to the even word 2
@example((FixedPointFormat(2, 3), -4.0625))  # a tie at the low end, rounded into range
@example((FixedPointFormat(2, 3), 3.9375))   # a tie at the high end, rounded out of range
def test_quantize_is_decode_of_encode(case):
    fmt, value = case
    assert _held(fmt.quantize, value) == _held(lambda x: decode(fmt, fmt.encode(x)), value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_quantize_refuses_a_non_finite_value(value):
    with pytest.raises(RangeError) as caught:
        FixedPointFormat().quantize(value)
    assert str(caught.value) == f"cannot encode non-finite value {value}"


@st.composite
def reflections(draw):
    """A random layout, a subset of its registers and a predicate on their labels."""
    names = ["a", "b", "c"][: draw(st.integers(1, 3))]
    layout = RegisterLayout(
        [(name, draw(st.integers(1, 3))) for name in draw(st.permutations(names))]
    )
    register = draw(st.sampled_from(names))
    hits = frozenset(draw(st.lists(st.integers(0, (1 << layout.width(register)) - 1))))
    zero = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    return layout, register, (lambda label: label in hits), zero


@settings(deadline=None, max_examples=80)
@given(reflections())
def test_cached_diagonals_equal_a_fresh_evaluation(case):
    layout, register, predicate, zero = case
    labels = np.arange(layout.dim)

    def extract(name):  # a register's field of each label, by bit arithmetic
        return (labels >> layout.offset(name)) & ((1 << layout.width(name)) - 1)

    where = np.array([predicate(v) for v in extract(register)])
    at_zero = np.all([extract(name) == 0 for name in zero], axis=0)
    amps = np.random.default_rng(layout.dim).normal(size=(2, layout.dim))
    for op, names, key, hits in (
        (ReflectWhere(register, predicate), (register,), (predicate,), where),
        (ReflectAboutZero(zero), tuple(zero), (), at_zero),
    ):
        diagonal = layout.sign_flips(names, *key)
        np.testing.assert_array_equal(diagonal, np.where(hits, -1.0, 1.0))
        assert not diagonal.flags.writeable
        assert RegisterLayout(layout.registers).sign_flips(names, *key) is diagonal  # shared by equal layouts
        # The reflection's kernel multiplies each state of a stack by it.
        np.testing.assert_array_equal(op.apply(StateVector(layout, amps.copy())).amps, amps * diagonal)


def test_diagonals_of_large_layouts_are_not_cached():
    layout = RegisterLayout([("a", 6), ("b", 7)])  # 8192 labels
    before = _flip_table.cache_info().currsize
    amps = np.full(layout.dim, layout.dim**-0.5)
    for op, names, key in (
        (ReflectWhere("b", lambda label: label == 3), ("b",), (lambda label: label == 3,)),
        (ReflectAboutZero(["a"]), ("a",), ()),
    ):
        diagonal = layout.sign_flips(names, *key)
        assert not diagonal.flags.writeable
        assert layout.sign_flips(names, *key) is not diagonal
        np.testing.assert_array_equal(diagonal, layout.sign_flips(names, *key))
        np.testing.assert_array_equal(op.apply(StateVector(layout, amps.copy())).amps, amps * diagonal)
    assert _flip_table.cache_info().currsize == before


@st.composite
def prefixed_preparations(draw):
    """A preparation whose ops open with 0-3 Hadamard blocks on distinct
    registers, then 0-3 other ops: the prefix is none, some or all of the
    list. Distinct registers keep every entry of the prefix's start a single
    product, as in both builders. Rotations key on a (k, n) table, or with
    k = 0 on one row of n values."""
    layout = draw(layouts())
    k = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prefix = [HadamardBlock(name) for name in draw(st.lists(st.sampled_from(layout.names),
                                                            max_size=3, unique=True))]
    rest = []
    for kind in draw(st.lists(st.sampled_from(["rotation", "controlled", "hadamard", "reflect"]),
                              max_size=3)):
        n = 1 << layout.width("k")
        rotation = ValueKeyedRotation(["k"], "t", rng.uniform(-1.0, 1.0, size=(k, n) if k else n))
        if kind == "rotation" or (kind == "hadamard" and not rest):  # the prefix ends here
            rest.append(rotation)
        elif kind == "controlled":
            rest.append(Controlled("c", draw(st.integers(0, (1 << layout.width("c")) - 1)), rotation))
        elif kind == "hadamard":
            rest.append(HadamardBlock(draw(st.sampled_from(layout.names))))
        else:
            rest.append(ReflectAboutZero([draw(st.sampled_from(layout.names))]))
    prep = StatePreparation(name="prefixed", layout=layout, ops=(*prefix, *rest),
                            good_register="t", rows=max(k, 1))
    return prep, len(prefix), k or None


@settings(deadline=None, max_examples=150)
@given(prefixed_preparations())
def test_a_replay_from_the_walsh_start_equals_the_op_by_op_replay(case):
    prep, lead, rows = case
    assert walsh_start(prep.ops, prep.layout)[1] == prep.ops[lead:]
    state = new_state(prep.layout, prep.rows)
    for op in prep.ops:
        op.apply(state)
    np.testing.assert_array_equal(prep.prepare().amps, state.amps)
    eye = np.eye(prep.layout.dim)
    columns = StateVector(prep.layout, eye if rows is None else np.tile(eye, (rows, 1, 1)))
    for op in prep.ops:
        op.apply(columns)
    np.testing.assert_array_equal(operation_matrix(prep.ops, prep.layout, rows),
                                  np.swapaxes(columns.amps, -1, -2))


@settings(deadline=None, max_examples=150)
@given(prefixed_preparations())
def test_grover_matrix_is_the_product_of_a_and_the_sign_flips(case):
    prep = case[0]
    lay = prep.layout
    a = operation_matrix(prep.ops, lay, prep.rows)
    zero = lay.sign_flips(prep.reflection_registers)
    good = lay.sign_flips((prep.good_register,), label_is_zero)
    want = (a * -zero) @ a.transpose(0, 2, 1) * good
    np.testing.assert_array_equal(GroverOperator(prep).matrix(), want if prep.rows > 1 else want[0])


@st.composite
def waves(draw):
    """One to four parts for `EstimatorRun.means`, each with 0 to 3 rows of
    1 to 8 values (so rows of every pad width, 2, 4 and 8), at t = 2 or 3,
    signed or not, with its own costs and scale; and a stack limit, the
    default or one small enough to split a wave (a row holds 16 to 48
    amplitudes in circuit mode)."""
    parts = []
    for i in range(draw(st.integers(1, 4))):
        n, k = draw(st.integers(1, 8)), draw(st.integers(0, 3))
        rows = draw(st.lists(st.lists(unit_values, min_size=n, max_size=n), min_size=k, max_size=k))
        parts.append(Part(
            f"part{i}", np.array(rows).reshape(k, n), {"oracle_data": i + 1},
            draw(st.integers(2, 3)), draw(st.booleans()), draw(st.floats(0.5, 2.0)),
        ))
    return parts, draw(st.one_of(st.just(pipelines.MAX_STACK_AMPS), st.integers(1, 200)))


_TABLE = np.array([[0.3, -0.8, 0.5], [0.9, 0.1, -0.4], [-0.2, 0.6, 0.7]])


@pytest.mark.parametrize("mode", ["ideal", "circuit"])
@settings(deadline=None, max_examples=80)
@given(case=waves(), seed=st.integers(0, 2**32))
# Every case at once: an empty part inside a wave, parts of two t, and a
# limit of 50 amplitudes, which splits the t = 2 wave (rows of 16 or 24).
@example(case=([
    Part("m", _TABLE, {"oracle_data": 1}, 2, True, 2.0),
    Part("none", _TABLE[:0], {"oracle_data": 2}, 2, False),
    Part("sq", _TABLE[:2], {"oracle_query": 1}, 2, False),
    Part("t3", _TABLE, {"arithmetic": 1}, 3, True),
], 50), seed=7)
def test_a_wave_equals_its_parts_read_one_after_another(mode, case, seed):
    parts, limit = case
    real = pipelines.estimate_amplitude

    def read(together: bool):
        """The means, each AE run's (outcome given, amplitude, t) in call
        order, the ledger and the final run index of a fresh runner."""
        runs = []

        def recorded(prep, config, ledger=None, *, outcome=None):
            result = real(prep, config, ledger, outcome=outcome)
            runs.append((outcome, result.amplitude, result.t_bits))
            return result

        runner = EstimatorRun(PipelineConfig(t_bits=2, mode=mode, seed=seed))
        with mock.patch.object(pipelines, "estimate_amplitude", recorded), \
                mock.patch.object(pipelines, "MAX_STACK_AMPS", limit):
            if together:
                means = runner.means(*parts)
            else:
                means = [runner.means(part)[0] for part in parts]
        return means, runs, runner.ledger.snapshot(), runner._run_index

    wave = read(True)
    assert wave == read(False)
    assert wave[3] == sum(len(part.table) for part in parts)
