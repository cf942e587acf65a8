"""Property tests: every operation that A and Q are built from is a real
orthogonal map, and its `dagger` inverts it. On a (k, dim) stack of states
each op, and Q, acts on every state exactly as on that state alone, and the
norm check holds each state to unit norm on its own.

Layouts, register order, widths (1 to 6 qubits), rotation values, control
values and reflection predicates are drawn at random. The keyed rotation's
one-pass kernel is held bit for bit to its two-line form, the cached
reflection diagonals to a label-by-label evaluation, and a replay that starts
from the cached Hadamard prefix to the op-by-op replay.
"""
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qadsim.ae import GroverOperator, StatePreparation, label_is_zero  # noqa: E402
from qadsim.pipelines import interference_prep, squared_mean_prep  # noqa: E402
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
def test_op_is_real_orthogonal_and_dagger_inverts(case):
    layout, op = case
    mat = operation_matrix([op], layout)
    assert mat.dtype == np.float64
    eye = np.eye(layout.dim)
    np.testing.assert_allclose(mat @ mat.T, eye, rtol=0, atol=TOL)
    inverse = operation_matrix([op.dagger()], layout)
    np.testing.assert_allclose(inverse @ mat, eye, rtol=0, atol=TOL)


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
def test_grover_apply_on_a_stack_equals_each_row(k, bits, squared, seed):
    build = squared_mean_prep if squared else interference_prep
    rng = np.random.default_rng(seed)
    table = rng.uniform(-0.99, 0.99, size=(k, 1 << bits))
    stacked = build("stack", table, {})
    amps = rng.normal(size=(k, stacked.layout.dim))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    got = GroverOperator(stacked).apply(StateVector(stacked.layout, amps.copy())).amps
    for out, row, values in zip(got, amps, table):
        single = build("row", values, {})
        want = GroverOperator(single).apply(StateVector(single.layout, row.copy())).amps
        np.testing.assert_array_equal(out, want)


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


rotation_values = st.one_of(st.sampled_from([1.0, -1.0, 0.0, float("nan")]), unit_values)


@st.composite
def keyed_stacks(draw):
    """A (k, C, H, 2, lo) amplitude stack and a (k, H) table: key register of
    H labels above the target, lo labels below it, C states per table row."""
    k, c = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    key_bits, low_bits = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    registers = [("low", low_bits)] * (low_bits > 0) + [("t", 1), ("k", key_bits)]
    layout = RegisterLayout(registers)
    table = np.array(draw(st.lists(rotation_values, min_size=k << key_bits,
                                   max_size=k << key_bits))).reshape(k, -1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=(k, c, layout.dim))
    return layout, table, amps


@settings(deadline=None, max_examples=200)
@given(keyed_stacks())
def test_keyed_rotation_kernel_equals_the_two_line_form(case):
    layout, table, amps = case
    k, lo, h = len(table), 1 << layout.offset("t"), table.shape[1]
    a = amps.reshape(k, -1, h, 2, lo)
    v = np.clip(table, -1.0, 1.0)[:, None, :, None]
    s = np.sqrt(np.clip(1.0 - v * v, 0.0, None))
    want = np.empty_like(a)
    want[..., 0, :] = v * a[..., 0, :] + s * a[..., 1, :]
    want[..., 1, :] = s * a[..., 0, :] - v * a[..., 1, :]
    with mock.patch.object(StateVector, "check_norm", lambda self: None):  # the kernel alone
        got = ValueKeyedRotation(["k"], "t", table).apply(StateVector(layout, amps.copy()))
    np.testing.assert_array_equal(got.amps, want.reshape(amps.shape))


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
    where = np.array([predicate(v) for v in layout.extract(labels, register)])
    at_zero = np.all([layout.extract(labels, name) == 0 for name in zero], axis=0)
    for op, hits in ((ReflectWhere(register, predicate), where), (ReflectAboutZero(zero), at_zero)):
        diagonal = op.diagonal(layout)
        np.testing.assert_array_equal(diagonal, np.where(hits, -1.0, 1.0))
        assert not diagonal.flags.writeable
        assert op.diagonal(RegisterLayout(layout.registers)) is diagonal  # shared by equal layouts


def test_diagonals_of_large_layouts_are_not_cached():
    layout = RegisterLayout([("a", 6), ("b", 7)])  # 8192 labels
    before = _flip_table.cache_info().currsize
    for op in (ReflectWhere("b", lambda label: label == 3), ReflectAboutZero(["a"])):
        diagonal = op.diagonal(layout)
        assert not diagonal.flags.writeable
        assert op.diagonal(layout) is not diagonal
        np.testing.assert_array_equal(diagonal, op.diagonal(layout))
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
                            good_register="t", good_predicate=label_is_zero, rows=max(k, 1))
    return prep, len(prefix), k or None


@settings(deadline=None, max_examples=150)
@given(prefixed_preparations())
def test_a_replay_from_the_walsh_start_equals_the_op_by_op_replay(case):
    prep, lead, rows = case
    assert walsh_start(prep.ops, prep.layout)[1] == prep.ops[lead:]
    np.testing.assert_array_equal(prep.prepare().amps,
                                  prep.apply(new_state(prep.layout, prep.rows)).amps)
    eye = np.eye(prep.layout.dim)
    columns = StateVector(prep.layout, eye if rows is None else np.tile(eye, (rows, 1, 1)))
    for op in prep.ops:
        op.apply(columns)
    np.testing.assert_array_equal(operation_matrix(prep.ops, prep.layout, rows),
                                  np.swapaxes(columns.amps, -1, -2))
